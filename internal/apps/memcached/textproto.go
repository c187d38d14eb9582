package memcached

import (
	"bytes"
	"strconv"

	"ebbrt/internal/costs"
	"ebbrt/internal/event"
	"ebbrt/internal/sim"
)

// The ASCII text protocol: the line-oriented wire format stock memcached
// clients and load generators speak (docs/PROTOCOL.md is the reference
// for the grammar implemented here). The server auto-detects the
// protocol per connection - a first byte of 0x80 is the binary request
// magic, anything else is a text command line - so one listener serves
// both. This file is only the text codec: a storage command runs the
// same Server.store a binary one does, and replies go into the same
// response, a long GET value lent as a view exactly as binary lends it.
//
// The parser is a streaming state machine: a command line may arrive
// split at any byte offset, a storage command's data block may straddle
// deliveries, and malformed input answers CLIENT_ERROR and resynchronizes
// rather than killing the connection (only `quit` and a binary-side
// framing error close it).

// Limits mirroring stock memcached's defaults.
const (
	// MaxTextKey is the longest key the text protocol accepts.
	MaxTextKey = 250
	// MaxTextLine bounds one command line (including arguments). A
	// longer line answers CLIENT_ERROR and is discarded through its
	// terminating newline.
	MaxTextLine = 2048
	// MaxTextValue bounds one data block (stock memcached's default 1 MB
	// item limit). A larger announced block answers SERVER_ERROR and is
	// swallowed without buffering.
	MaxTextValue = 1 << 20
)

// TextVersionString is what `version` reports.
const TextVersionString = "1.6.0-ebbrt"

// Canonical response lines (byte-exact stock memcached).
const (
	respStored       = "STORED\r\n"
	respNotStored    = "NOT_STORED\r\n"
	respDeleted      = "DELETED\r\n"
	respNotFound     = "NOT_FOUND\r\n"
	respTouched      = "TOUCHED\r\n"
	respOK           = "OK\r\n"
	respEnd          = "END\r\n"
	respError        = "ERROR\r\n"
	respBadLine      = "CLIENT_ERROR bad command line format\r\n"
	respBadDataChunk = "CLIENT_ERROR bad data chunk\r\n"
	respTooLarge     = "SERVER_ERROR object too large for cache\r\n"
	respOOM          = "SERVER_ERROR out of memory storing object\r\n"
	respNonNumeric   = "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"
	respBadDelta     = "CLIENT_ERROR invalid numeric delta argument\r\n"
)

// maxTextSwallow bounds the resync swallow after a refused storage
// command: only a plausibly-sized announced block is skipped. An absurd
// <bytes> value (including ones where need+2 would overflow) is not
// skipped at all - the connection survives, with the block's bytes
// surfacing as (failing) command lines until the stream happens back
// into sync, which is also what stock memcached degrades to.
const maxTextSwallow = 8 << 20

// textState is the parser position within the request stream.
type textState uint8

const (
	// textLine: reading a command line up to its newline.
	textLine textState = iota
	// textData: reading a storage command's <bytes>-long data block plus
	// its trailing CRLF.
	textData
	// textSwallowLine: discarding an oversized command line through its
	// newline (the error was already answered).
	textSwallowLine
	// textSwallowData: discarding an announced data block we refused to
	// buffer (oversized, or its command line was malformed), counting
	// bytes rather than buffering them.
	textSwallowData
)

// textStoreModes maps each storage command onto the mode store runs.
var textStoreModes = map[string]storeMode{
	"set": storeSet, "add": storeAdd, "replace": storeReplace, "append": storeAppend, "prepend": storePrepend,
}

// textSession is the per-connection text-protocol parser state.
type textSession struct {
	state   textState
	swallow int // bytes left to discard in textSwallowData

	// Pending storage command, valid in textData.
	cmd     storeMode
	key     []byte // the command line's key, copied into bytes reused per command
	flags   uint32
	exptime int64 // wire exptime, resolved when the data block completes
	need    int   // announced data block length
	noreply bool  // the command in progress asked for no reply

	toks [][]byte // the current command line's tokens, the slice reused per line
}

// reply writes msg, if any, unless the command in progress was marked
// noreply: noreply suppresses every response to that command, success or
// error, exactly as stock memcached does (the client is not reading).
func (ts *textSession) reply(r *response, msg string) {
	if msg != "" && !ts.noreply {
		r.text(msg)
	}
}

// handleText consumes as much of data as currently parses, writing the
// replies to r. It reports how many bytes were consumed (the caller
// retains the tail for the next delivery) and whether the client asked
// to quit.
func (s *Server) handleText(c *event.Ctx, ts *textSession, data []byte, r *response) (consumed int, quit bool) {
	for consumed < len(data) {
		switch ts.state {
		case textSwallowData:
			n := len(data) - consumed
			if n > ts.swallow {
				n = ts.swallow
			}
			consumed += n
			ts.swallow -= n
			if ts.swallow == 0 {
				ts.state = textLine
			}

		case textSwallowLine:
			idx := bytes.IndexByte(data[consumed:], '\n')
			if idx < 0 {
				return len(data), false
			}
			consumed += idx + 1
			ts.state = textLine

		case textData:
			if len(data)-consumed < ts.need+2 {
				return consumed, false
			}
			block := data[consumed : consumed+ts.need]
			termOK := data[consumed+ts.need] == '\r' && data[consumed+ts.need+1] == '\n'
			consumed += ts.need + 2
			ts.state = textLine
			s.Requests++
			s.stats.cmdSet++
			c.Charge(costs.MemcachedRequestNs + s.Store.OpCost(s.Cores))
			if !termOK {
				// The block was not CRLF-terminated where <bytes> said it
				// would be: the value is not stored, but the stream stays
				// in sync (the announced length was still consumed).
				ts.reply(r, respBadDataChunk)
				continue
			}
			now := c.Now()
			s.maybeApplyFlush(now)
			// Here is where the command line's exptime finally lands on
			// the entry - resolved against the completion instant, which
			// is when stock memcached stamps it too.
			switch status, _ := s.store(ts.cmd, keyView(ts.key), block, ts.flags, AbsoluteExpiry(ts.exptime, now), 0, now); status {
			case StatusOK:
				ts.reply(r, respStored)
			case StatusOutOfMemory:
				ts.reply(r, respOOM)
			default: // an add that lost, or nothing to replace or extend
				ts.reply(r, respNotStored)
			}

		case textLine:
			idx := bytes.IndexByte(data[consumed:], '\n')
			if idx < 0 {
				// A legal line is at most MaxTextLine bytes plus CRLF, so an
				// unterminated buffer may legitimately hold MaxTextLine+1
				// bytes (the CR arrived, the LF has not). Beyond that the
				// eventual line must be oversized whatever follows: answer
				// the error now and discard input through the newline.
				if len(data)-consumed > MaxTextLine+1 {
					r.text(respBadLine)
					ts.state = textSwallowLine
					return len(data), false
				}
				return consumed, false
			}
			line := data[consumed : consumed+idx]
			consumed += idx + 1
			if len(line) > 0 && line[len(line)-1] == '\r' {
				line = line[:len(line)-1]
			}
			if len(line) > MaxTextLine {
				ts.rejectLongLine(line)
				r.text(respBadLine)
				continue
			}
			reply, quit := s.execTextLine(c, ts, line, r)
			if quit {
				return consumed, true
			}
			ts.reply(r, reply)
		}
	}
	return consumed, false
}

// execTextLine runs one complete command line. It writes a retrieval's or
// a stats group's records to r itself and returns the reply's last line
// for the caller to write, noreply permitting: "" when there is none yet,
// as for a storage command whose data block is still to come.
func (s *Server) execTextLine(c *event.Ctx, ts *textSession, line []byte, r *response) (reply string, quit bool) {
	ts.noreply = false
	ts.toks = splitTextTokens(ts.toks[:0], line)
	toks := ts.toks
	if len(toks) == 0 {
		return respError, false
	}
	now := c.Now()
	s.maybeApplyFlush(now)
	parse := sim.Time(len(line)) * costs.MemcachedTextParseNsPerByte
	switch string(toks[0]) {
	case "get", "gets":
		s.Requests++
		c.Charge(costs.MemcachedRequestNs + parse)
		if len(toks) < 2 {
			return respError, false
		}
		for _, kt := range toks[1:] {
			if len(kt) > MaxTextKey {
				return respBadLine, false
			}
		}
		withCAS := string(toks[0]) == "gets"
		for _, kt := range toks[1:] {
			c.Charge(s.Store.OpCost(s.Cores))
			if e, ok := s.getForRead(keyView(kt), now); ok {
				r.addValue(kt, e, withCAS)
			}
		}
		return respEnd, false

	case "set", "add", "replace", "append", "prepend":
		c.Charge(parse)
		return ts.parseStorage(toks), false

	case "incr", "decr":
		// incr <key> <delta> [noreply]
		s.Requests++
		c.Charge(costs.MemcachedRequestNs + parse + s.Store.OpCost(s.Cores))
		if !ts.args(toks, 3) {
			return respBadLine, false
		}
		delta, err := strconv.ParseUint(string(toks[2]), 10, 64)
		if err != nil {
			return respBadDelta, false
		}
		// CounterNoCreate: the text protocol never seeds a missing key.
		newVal, _, status := s.applyDelta(keyView(toks[1]), delta, 0, CounterNoCreate, string(toks[0]) == "incr", now)
		switch status {
		case StatusKeyNotFound:
			return respNotFound, false
		case StatusDeltaBadval:
			return respNonNumeric, false
		case StatusOutOfMemory:
			return respOOM, false
		}
		return strconv.FormatUint(newVal, 10) + "\r\n", false

	case "touch":
		// touch <key> <exptime> [noreply]
		s.Requests++
		c.Charge(costs.MemcachedRequestNs + parse + s.Store.OpCost(s.Cores))
		if !ts.args(toks, 3) {
			return respBadLine, false
		}
		exptime, err := strconv.ParseInt(string(toks[2]), 10, 64)
		if err != nil {
			return respBadLine, false
		}
		if !s.applyTouch(keyView(toks[1]), AbsoluteExpiry(exptime, now), now) {
			return respNotFound, false
		}
		return respTouched, false

	case "flush_all":
		// flush_all [delay] [noreply]
		s.Requests++
		c.Charge(costs.MemcachedRequestNs + parse)
		args := toks[1:]
		ts.noreply = len(args) > 0 && tokIs(args[len(args)-1], "noreply")
		if ts.noreply {
			args = args[:len(args)-1]
		}
		var delay int64
		if len(args) > 1 {
			return respBadLine, false
		}
		if len(args) == 1 {
			var err error
			if delay, err = strconv.ParseInt(string(args[0]), 10, 64); err != nil {
				return respBadLine, false
			}
		}
		s.applyFlushAll(delay, now)
		return respOK, false

	case "delete":
		// delete <key> [noreply]
		s.Requests++
		c.Charge(costs.MemcachedRequestNs + parse + s.Store.OpCost(s.Cores))
		if !ts.args(toks, 2) {
			ts.noreply = false // unlike incr's and touch's, a malformed delete is answered
			return respBadLine, false
		}
		if s.applyDelete(keyView(toks[1]), 0, now) {
			return respDeleted, false
		}
		return respNotFound, false

	case "stats":
		// stats [items|slabs] - stats.go renders the groups, a STAT record
		// per statistic; an unrecognized group answers ERROR, as stock
		// does for unsupported stats arguments.
		s.Requests++
		c.Charge(costs.MemcachedRequestNs + parse)
		if len(toks) > 2 {
			return respError, false
		}
		group := ""
		if len(toks) == 2 {
			group = string(toks[1])
		}
		lines, ok := s.statLines(group, now)
		if !ok {
			return respError, false
		}
		for _, st := range lines {
			r.text("STAT ", st.name, " ", st.value, "\r\n")
		}
		return respEnd, false

	case "version":
		s.Requests++
		c.Charge(costs.MemcachedRequestNs)
		return "VERSION " + TextVersionString + "\r\n", false

	case "quit":
		return "", true

	default:
		s.Requests++
		c.Charge(costs.MemcachedRequestNs + parse)
		return respError, false
	}
}

// args checks a `<cmd> <key> ...` line for n tokens, or n and a trailing
// noreply, which it records, and for a key the protocol accepts.
func (ts *textSession) args(toks [][]byte, n int) bool {
	ts.noreply = len(toks) == n+1 && tokIs(toks[n], "noreply")
	return (len(toks) == n || ts.noreply) && len(toks[1]) <= MaxTextKey
}

// parseStorage validates a `set`/`add`/`replace`/`append`/`prepend`
// command line and arms the data-block state, returning the reply when it
// refuses the line. A malformed line whose <bytes> argument still parses
// swallows the announced block so the stream resynchronizes at the next
// command line; if <bytes> itself is unreadable there is nothing to skip
// and the block's bytes will surface as (failing) command lines - the
// same recovery stock memcached performs.
func (ts *textSession) parseStorage(toks [][]byte) string {
	// <cmd> <key> <flags> <exptime> <bytes> [noreply]
	if len(toks) < 5 {
		return respBadLine
	}
	ts.noreply = len(toks) == 6 && tokIs(toks[5], "noreply")
	need, needErr := strconv.Atoi(string(toks[4]))
	flags, flagsErr := strconv.ParseUint(string(toks[2]), 10, 32)
	exptime, expErr := strconv.ParseInt(string(toks[3]), 10, 64)
	if (len(toks) != 5 && !ts.noreply) || needErr != nil || need < 0 || flagsErr != nil || expErr != nil || len(toks[1]) > MaxTextKey {
		ts.skipBlock(toks[4])
		return respBadLine
	}
	if need > MaxTextValue {
		ts.skipBlock(toks[4])
		return respTooLarge
	}
	ts.cmd = textStoreModes[string(toks[0])]
	ts.key = append(ts.key[:0], toks[1]...)
	ts.flags = uint32(flags)
	ts.exptime = exptime
	ts.need = need
	ts.state = textData
	return ""
}

// rejectLongLine resynchronizes after a complete command line over
// MaxTextLine as parseStorage does: a storage command whose <bytes>
// argument still parses swallows its announced data block, so the
// block's bytes are not misread as command lines.
func (ts *textSession) rejectLongLine(line []byte) {
	ts.toks = splitTextTokens(ts.toks[:0], line)
	if toks := ts.toks; len(toks) >= 5 && textStoreModes[string(toks[0])] != 0 {
		ts.skipBlock(toks[4])
	}
}

// skipBlock discards the data block a refused storage command announced,
// if its <bytes> argument reads as a length worth skipping.
func (ts *textSession) skipBlock(bytesArg []byte) {
	if need, err := strconv.Atoi(string(bytesArg)); err == nil && need >= 0 && need <= maxTextSwallow {
		ts.state = textSwallowData
		ts.swallow = need + 2
	}
}

// text writes one text-protocol record: the concatenation of parts.
func (r *response) text(parts ...string) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	f := r.Next(n)
	for _, p := range parts {
		f = f[copy(f, p):]
	}
}

// addValue writes one retrieval hit, VALUE <key> <flags> <bytes>[ <cas>]
// and its data block, which is lent as a binary GET's value is.
func (r *response) addValue(key []byte, e *Entry, withCAS bool) {
	var buf [MaxTextKey + 64]byte
	h := append(append(buf[:0], "VALUE "...), key...)
	h = strconv.AppendUint(append(h, ' '), uint64(e.Flags), 10)
	h = strconv.AppendInt(append(h, ' '), int64(e.Len()), 10)
	if withCAS {
		h = strconv.AppendUint(append(h, ' '), e.CAS, 10)
	}
	h = append(h, '\r', '\n')
	copy(r.record(len(h), e, "\r\n"), h)
}

// splitTextTokens appends a command line's tokens to toks, splitting on
// spaces and skipping runs of them; a session passes its own slice back,
// so a warm one splits a line without allocating.
func splitTextTokens(toks [][]byte, line []byte) [][]byte {
	for len(line) > 0 {
		for len(line) > 0 && line[0] == ' ' {
			line = line[1:]
		}
		if len(line) == 0 {
			break
		}
		end := bytes.IndexByte(line, ' ')
		if end < 0 {
			end = len(line)
		}
		toks = append(toks, line[:end])
		line = line[end:]
	}
	return toks
}

// tokIs reports whether the token equals the literal.
func tokIs(tok []byte, lit string) bool { return string(tok) == lit }
