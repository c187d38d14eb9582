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
// both, and both run against the same Store.
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

// textSession is the per-connection text-protocol parser state.
type textSession struct {
	state   textState
	swallow int // bytes left to discard in textSwallowData

	// Pending storage command, valid in textData.
	cmd     byte // 's'et, 'a'dd, 'r'eplace, '+' append, '-' prepend
	key     string
	flags   uint32
	exptime int64 // wire exptime, resolved when the data block completes
	need    int   // announced data block length
	noreply bool
}

// reply appends msg unless the in-progress command was marked noreply:
// noreply suppresses every response to that command, success or error,
// exactly as stock memcached does (the client is not reading).
func (ts *textSession) reply(resp []byte, msg string) []byte {
	if ts.noreply {
		return resp
	}
	return append(resp, msg...)
}

// handleText consumes as much of data as currently parses, appending
// response bytes. It reports how many bytes were consumed (the caller
// retains the tail for the next delivery) and whether the client asked
// to quit.
func (s *Server) handleText(c *event.Ctx, ts *textSession, data []byte) (resp []byte, consumed int, quit bool) {
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
				return resp, len(data), false
			}
			consumed += idx + 1
			ts.state = textLine

		case textData:
			if len(data)-consumed < ts.need+2 {
				return resp, consumed, false
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
				resp = ts.reply(resp, respBadDataChunk)
				continue
			}
			now := c.Now()
			s.maybeApplyFlush(now)
			value := append([]byte(nil), block...)
			// Here is where the command line's exptime finally lands on
			// the entry - resolved against the completion instant, which
			// is when stock memcached stamps it too.
			expires := AbsoluteExpiry(ts.exptime, now)
			switch ts.cmd {
			case 's':
				cur, _ := s.Store.Get(ts.key)
				e := &Entry{Value: value, Flags: ts.flags, CAS: s.mintCAS(cur), Expires: expires, StoredAt: now}
				if s.Store.Set(ts.key, e) {
					s.stats.totalItems++
					resp = ts.reply(resp, respStored)
				} else {
					resp = ts.reply(resp, respOOM)
				}
			case 'a':
				// An expired occupant does not defeat an add; reclaim it
				// first, as the binary path does.
				if cur, ok := s.Store.Get(ts.key); ok && !s.EntryLive(cur, now) {
					s.Store.Delete(ts.key)
					s.ExpiredReclaimed++
				}
				e := &Entry{Value: value, Flags: ts.flags, CAS: s.nextCAS(), Expires: expires, StoredAt: now}
				if s.Store.Add(ts.key, e) {
					s.stats.totalItems++
					resp = ts.reply(resp, respStored)
				} else {
					resp = ts.reply(resp, respNotStored)
				}
			case 'r':
				// Store-only-if-present. The get/set pair is atomic here:
				// the simulation kernel runs one event at a time, so no
				// other request interleaves between the check and the set.
				if cur, ok := s.getLive(ts.key, now); ok {
					e := &Entry{Value: value, Flags: ts.flags, CAS: s.mintCAS(cur), Expires: expires, StoredAt: now}
					if s.Store.Set(ts.key, e) {
						s.stats.totalItems++
						resp = ts.reply(resp, respStored)
					} else {
						resp = ts.reply(resp, respOOM)
					}
				} else {
					resp = ts.reply(resp, respNotStored)
				}
			case '+', '-':
				// append/prepend ignore the line's flags and exptime and
				// keep the entry's own, per stock memcached.
				e, _, ok := s.applyConcat(ts.key, value, ts.cmd == '+', now)
				switch {
				case !ok:
					resp = ts.reply(resp, respNotStored)
				case e == nil:
					resp = ts.reply(resp, respOOM)
				default:
					resp = ts.reply(resp, respStored)
				}
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
					resp = append(resp, respBadLine...)
					ts.state = textSwallowLine
					return resp, len(data), false
				}
				return resp, consumed, false
			}
			line := data[consumed : consumed+idx]
			consumed += idx + 1
			if len(line) > 0 && line[len(line)-1] == '\r' {
				line = line[:len(line)-1]
			}
			if len(line) > MaxTextLine {
				resp = ts.rejectLongLine(line, resp)
				continue
			}
			var q bool
			resp, q = s.execTextLine(c, ts, line, resp)
			if q {
				return resp, consumed, true
			}
		}
	}
	return resp, consumed, false
}

// execTextLine dispatches one complete command line.
func (s *Server) execTextLine(c *event.Ctx, ts *textSession, line []byte, resp []byte) (out []byte, quit bool) {
	toks := splitTextTokens(line)
	if len(toks) == 0 {
		return append(resp, respError...), false
	}
	now := c.Now()
	s.maybeApplyFlush(now)
	switch {
	case tokIs(toks[0], "get"), tokIs(toks[0], "gets"):
		s.Requests++
		c.Charge(costs.MemcachedRequestNs + sim.Time(len(line))*costs.MemcachedTextParseNsPerByte)
		if len(toks) < 2 {
			return append(resp, respError...), false
		}
		for _, kt := range toks[1:] {
			if len(kt) > MaxTextKey {
				return append(resp, respBadLine...), false
			}
		}
		withCAS := tokIs(toks[0], "gets")
		for _, kt := range toks[1:] {
			c.Charge(s.Store.OpCost(s.Cores))
			if e, ok := s.getForRead(string(kt), now); ok {
				resp = appendTextValue(resp, kt, e, withCAS)
			}
		}
		return append(resp, respEnd...), false

	case tokIs(toks[0], "set"), tokIs(toks[0], "add"), tokIs(toks[0], "replace"),
		tokIs(toks[0], "append"), tokIs(toks[0], "prepend"):
		c.Charge(sim.Time(len(line)) * costs.MemcachedTextParseNsPerByte)
		return s.parseTextStorage(ts, toks, resp), false

	case tokIs(toks[0], "incr"), tokIs(toks[0], "decr"):
		// incr <key> <delta> [noreply]
		s.Requests++
		c.Charge(costs.MemcachedRequestNs + sim.Time(len(line))*costs.MemcachedTextParseNsPerByte + s.Store.OpCost(s.Cores))
		ts.noreply = len(toks) == 4 && tokIs(toks[3], "noreply")
		if len(toks) < 3 || len(toks) > 4 || (len(toks) == 4 && !ts.noreply) || len(toks[1]) > MaxTextKey {
			return ts.reply(resp, respBadLine), false
		}
		delta, err := strconv.ParseUint(string(toks[2]), 10, 64)
		if err != nil {
			return ts.reply(resp, respBadDelta), false
		}
		// CounterNoCreate: the text protocol never seeds a missing key.
		newVal, _, status := s.applyDelta(string(toks[1]), delta, 0, CounterNoCreate, tokIs(toks[0], "incr"), now)
		switch status {
		case StatusKeyNotFound:
			return ts.reply(resp, respNotFound), false
		case StatusDeltaBadval:
			return ts.reply(resp, respNonNumeric), false
		case StatusOutOfMemory:
			return ts.reply(resp, respOOM), false
		}
		if ts.noreply {
			return resp, false
		}
		resp = strconv.AppendUint(resp, newVal, 10)
		return append(resp, '\r', '\n'), false

	case tokIs(toks[0], "touch"):
		// touch <key> <exptime> [noreply]
		s.Requests++
		c.Charge(costs.MemcachedRequestNs + sim.Time(len(line))*costs.MemcachedTextParseNsPerByte + s.Store.OpCost(s.Cores))
		ts.noreply = len(toks) == 4 && tokIs(toks[3], "noreply")
		if len(toks) < 3 || len(toks) > 4 || (len(toks) == 4 && !ts.noreply) || len(toks[1]) > MaxTextKey {
			return ts.reply(resp, respBadLine), false
		}
		exptime, err := strconv.ParseInt(string(toks[2]), 10, 64)
		if err != nil {
			return ts.reply(resp, respBadLine), false
		}
		if !s.applyTouch(string(toks[1]), AbsoluteExpiry(exptime, now), now) {
			return ts.reply(resp, respNotFound), false
		}
		return ts.reply(resp, respTouched), false

	case tokIs(toks[0], "flush_all"):
		// flush_all [delay] [noreply]
		s.Requests++
		c.Charge(costs.MemcachedRequestNs + sim.Time(len(line))*costs.MemcachedTextParseNsPerByte)
		args := toks[1:]
		ts.noreply = len(args) > 0 && tokIs(args[len(args)-1], "noreply")
		if ts.noreply {
			args = args[:len(args)-1]
		}
		var delay int64
		if len(args) > 1 {
			return ts.reply(resp, respBadLine), false
		}
		if len(args) == 1 {
			var err error
			if delay, err = strconv.ParseInt(string(args[0]), 10, 64); err != nil {
				return ts.reply(resp, respBadLine), false
			}
		}
		s.applyFlushAll(delay, now)
		return ts.reply(resp, respOK), false

	case tokIs(toks[0], "delete"):
		s.Requests++
		c.Charge(costs.MemcachedRequestNs + sim.Time(len(line))*costs.MemcachedTextParseNsPerByte + s.Store.OpCost(s.Cores))
		noreply := len(toks) == 3 && tokIs(toks[2], "noreply")
		if len(toks) < 2 || len(toks) > 3 || (len(toks) == 3 && !noreply) || len(toks[1]) > MaxTextKey {
			return append(resp, respBadLine...), false
		}
		ok := s.applyDelete(string(toks[1]), now)
		if noreply {
			return resp, false
		}
		if ok {
			return append(resp, respDeleted...), false
		}
		return append(resp, respNotFound...), false

	case tokIs(toks[0], "stats"):
		// stats [items|slabs] - stats.go renders the groups; an
		// unrecognized group answers ERROR, as stock does for unsupported
		// stats arguments.
		s.Requests++
		c.Charge(costs.MemcachedRequestNs + sim.Time(len(line))*costs.MemcachedTextParseNsPerByte)
		if len(toks) > 2 {
			return append(resp, respError...), false
		}
		group := ""
		if len(toks) == 2 {
			group = string(toks[1])
		}
		lines, ok := s.statLines(group, now)
		if !ok {
			return append(resp, respError...), false
		}
		return appendTextStats(resp, lines), false

	case tokIs(toks[0], "version"):
		s.Requests++
		c.Charge(costs.MemcachedRequestNs)
		return append(resp, "VERSION "+TextVersionString+"\r\n"...), false

	case tokIs(toks[0], "quit"):
		return resp, true

	default:
		s.Requests++
		c.Charge(costs.MemcachedRequestNs + sim.Time(len(line))*costs.MemcachedTextParseNsPerByte)
		return append(resp, respError...), false
	}
}

// storageCmdCode maps a storage command name onto the one-byte code the
// data-block state dispatches on ('+'/'-' for append/prepend, since
// "append" and "add" share a first letter). Zero means not a storage
// command.
func storageCmdCode(tok []byte) byte {
	switch {
	case tokIs(tok, "set"):
		return 's'
	case tokIs(tok, "add"):
		return 'a'
	case tokIs(tok, "replace"):
		return 'r'
	case tokIs(tok, "append"):
		return '+'
	case tokIs(tok, "prepend"):
		return '-'
	}
	return 0
}

// parseTextStorage validates a `set`/`add`/`replace`/`append`/`prepend`
// command line and arms the data-block state. A malformed line whose
// <bytes> argument still parses swallows the announced block so the
// stream resynchronizes at the next command line; if <bytes> itself is
// unreadable there is nothing to skip and the block's bytes will
// surface as (failing) command lines - the same recovery stock
// memcached performs.
func (s *Server) parseTextStorage(ts *textSession, toks [][]byte, resp []byte) []byte {
	// <cmd> <key> <flags> <exptime> <bytes> [noreply]
	ts.noreply = false
	if len(toks) < 5 {
		return append(resp, respBadLine...)
	}
	bad := false
	if len(toks) == 6 && tokIs(toks[5], "noreply") {
		ts.noreply = true
	} else if len(toks) != 5 {
		bad = true
	}
	need, needErr := strconv.Atoi(string(toks[4]))
	flags, flagsErr := strconv.ParseUint(string(toks[2]), 10, 32)
	exptime, expErr := strconv.ParseInt(string(toks[3]), 10, 64)
	if needErr != nil || need < 0 || flagsErr != nil || expErr != nil || len(toks[1]) > MaxTextKey {
		bad = true
	}
	if bad {
		if needErr == nil && need >= 0 && need <= maxTextSwallow {
			ts.state = textSwallowData
			ts.swallow = need + 2
		}
		return ts.reply(resp, respBadLine)
	}
	if need > MaxTextValue {
		if need <= maxTextSwallow {
			ts.state = textSwallowData
			ts.swallow = need + 2
		}
		return ts.reply(resp, respTooLarge)
	}
	ts.cmd = storageCmdCode(toks[0])
	ts.key = string(toks[1])
	ts.flags = uint32(flags)
	ts.exptime = exptime
	ts.need = need
	ts.state = textData
	return resp
}

// rejectLongLine answers CLIENT_ERROR for a complete command line over
// MaxTextLine and, when the line is a storage command whose <bytes>
// argument still parses, swallows the announced data block - the same
// resynchronization parseTextStorage performs, so the block's bytes are
// not misread as command lines.
func (ts *textSession) rejectLongLine(line []byte, resp []byte) []byte {
	toks := splitTextTokens(line)
	if len(toks) >= 5 && storageCmdCode(toks[0]) != 0 {
		if need, err := strconv.Atoi(string(toks[4])); err == nil && need >= 0 && need <= maxTextSwallow {
			ts.state = textSwallowData
			ts.swallow = need + 2
		}
	}
	return append(resp, respBadLine...)
}

// appendTextValue serializes one retrieval hit:
// VALUE <key> <flags> <bytes>[ <cas>]\r\n<data block>\r\n
func appendTextValue(resp, key []byte, e *Entry, withCAS bool) []byte {
	resp = append(resp, "VALUE "...)
	resp = append(resp, key...)
	resp = append(resp, ' ')
	resp = strconv.AppendUint(resp, uint64(e.Flags), 10)
	resp = append(resp, ' ')
	resp = strconv.AppendInt(resp, int64(len(e.Value)), 10)
	if withCAS {
		resp = append(resp, ' ')
		resp = strconv.AppendUint(resp, e.CAS, 10)
	}
	resp = append(resp, '\r', '\n')
	resp = append(resp, e.Value...)
	return append(resp, '\r', '\n')
}

// splitTextTokens splits a command line on spaces, skipping runs of
// them, without allocating per token.
func splitTextTokens(line []byte) [][]byte {
	var toks [][]byte
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
