package memcached

import (
	"encoding/binary"
	"strconv"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/costs"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/sim"
)

// Port is the standard memcached port.
const Port = 11211

// Server is the memcached instance: one shared store, connections pinned
// to the cores RSS delivered them to. It speaks both standard wire
// protocols on the same listener - the binary protocol and the ASCII
// text protocol (textproto.go) - auto-detected per connection from the
// first byte.
type Server struct {
	Store Store
	Cores int
	// Requests counts operations served.
	Requests uint64
	// ExpiredReclaimed counts entries deleted lazily because a lookup
	// found them past their expiry (or behind a due flush_all).
	ExpiredReclaimed uint64

	// casSeq feeds nextCAS: every stored entry gets a node-unique,
	// monotonically increasing CAS value, reported by `gets` (and echoed
	// in binary GET response headers).
	casSeq uint64

	// flushAt is the pending flush_all deadline: once the clock reaches
	// it, every entry stored before it is dead (stock memcached's
	// oldest_live rule). Zero means no flush is pending. The sweep is
	// lazy - maybeApplyFlush runs it from the request path - but
	// EntryLive also honors a due-but-unswept deadline so direct store
	// readers (migration, staleness probes) never see flushed entries.
	flushAt sim.Time

	// stats are the live counters behind the `stats` command (stats.go
	// renders them under their stock names). Both protocols feed the same
	// counters, mostly from store and the shared apply* helpers.
	stats statCounters
}

// statCounters mirrors stock memcached's general-stats counters. cmd_get
// is not stored: it is hits+misses by construction (every retrieval key
// lands in exactly one of the two).
type statCounters struct {
	currConns  uint64
	totalConns uint64

	cmdSet   uint64 // storage commands attempted (set/add/replace/append/prepend)
	cmdFlush uint64
	cmdTouch uint64

	getHits    uint64
	getMisses  uint64
	getExpired uint64 // retrievals that found a dead entry (counted in getMisses too)

	deleteHits   uint64
	deleteMisses uint64
	incrHits     uint64
	incrMisses   uint64
	decrHits     uint64
	decrMisses   uint64
	touchHits    uint64
	touchMisses  uint64

	totalItems uint64 // entries ever stored by a command path
}

// nextCAS returns the next CAS value to stamp on a stored entry.
func (s *Server) nextCAS() uint64 {
	s.casSeq++
	return s.casSeq
}

// mintCAS mints a CAS for a fresh store of an entry that may replace
// cur. The server counter is node-monotonic, but an entry last written
// through the cluster's replica-wide stamps holds a value far above it;
// bumping past the old CAS keeps every entry's history monotonic, which
// the client hot-key cache's newest-wins rule depends on.
func (s *Server) mintCAS(cur *Entry) uint64 {
	cas := s.nextCAS()
	if cur != nil && cur.CAS >= cas {
		cas = cur.CAS + 1
	}
	return cas
}

// EntryLive reports whether the entry is visible at the given instant:
// not past its expiry, and not behind a due flush_all deadline.
func (s *Server) EntryLive(e *Entry, now sim.Time) bool {
	if e.Expired(now) {
		return false
	}
	if s.flushAt != 0 && now >= s.flushAt && e.StoredAt < s.flushAt {
		return false
	}
	return true
}

// getLive is the lazy-expiry lookup every read and mutation path goes
// through: a dead entry is reclaimed on touch and reported absent, as
// stock memcached does - nothing sweeps the store on a timer.
func (s *Server) getLive(key string, now sim.Time) (*Entry, bool) {
	e, ok := s.Store.Get(key)
	if !ok {
		return nil, false
	}
	if !s.EntryLive(e, now) {
		s.Store.Delete(key)
		s.ExpiredReclaimed++
		return nil, false
	}
	return e, true
}

// getForRead is getLive plus the retrieval accounting: every key a get
// command looks up lands in exactly one of get_hits/get_misses, with a
// miss that reclaimed a dead entry additionally counted in get_expired.
func (s *Server) getForRead(key string, now sim.Time) (*Entry, bool) {
	e, ok := s.Store.Get(key)
	if ok && !s.EntryLive(e, now) {
		s.Store.Delete(key)
		s.ExpiredReclaimed++
		s.stats.getExpired++
		ok = false
	}
	if !ok {
		s.stats.getMisses++
		return nil, false
	}
	s.stats.getHits++
	return e, true
}

// applyDelete removes a live entry, shared by both protocols; the
// outcome feeds delete_hits/delete_misses. A dead entry answers
// NOT_FOUND, exactly as if it had already been reclaimed.
func (s *Server) applyDelete(key string, now sim.Time) bool {
	if _, ok := s.getLive(key, now); ok && s.Store.Delete(key) {
		s.stats.deleteHits++
		return true
	}
	s.stats.deleteMisses++
	return false
}

// maybeApplyFlush sweeps out entries behind a due flush_all deadline,
// once, then clears it. Run from the request path so the store's
// footprint shrinks promptly after the deadline passes; correctness
// does not depend on it (EntryLive already hides flushed entries).
func (s *Server) maybeApplyFlush(now sim.Time) {
	if s.flushAt == 0 || now < s.flushAt {
		return
	}
	cut := s.flushAt
	s.flushAt = 0
	s.Store.Scan(func(key string, e *Entry) bool {
		if e.StoredAt < cut && s.Store.Delete(key) {
			s.ExpiredReclaimed++
		}
		return true
	})
}

// NewServer creates a server over the given store.
func NewServer(store Store, cores int) *Server {
	return &Server{Store: store, Cores: cores}
}

// Serve starts accepting connections on rt.
func (s *Server) Serve(rt appnet.Runtime) error {
	return rt.Listen(Port, func(conn appnet.Conn) appnet.Callbacks {
		sc := &serverConn{srv: s}
		sc.resp.Pool, sc.resp.views = appnet.PoolsOf(conn)
		s.stats.currConns++
		s.stats.totalConns++
		return appnet.Callbacks{
			OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
				sc.onData(c, conn, payload)
			},
			OnClose: func(c *event.Ctx, conn appnet.Conn, err error) {
				if !sc.counted {
					sc.counted = true
					s.stats.currConns--
				}
			},
		}
	})
}

// Prepopulate loads the store directly (the warmup the load generator
// would otherwise have to perform over the network).
func (s *Server) Prepopulate(keys [][]byte, values [][]byte) {
	for i := range keys {
		s.Store.Set(keyView(keys[i]), &Entry{Value: values[i], Flags: 0, CAS: s.nextCAS()})
	}
}

// Per-connection protocol modes. A connection commits to a protocol on
// its first received byte and never switches.
const (
	modeDetect byte = iota // nothing received yet
	modeBinary             // first byte was MagicRequest
	modeText               // anything else: an ASCII command line
	modeClosed             // torn down (quit, or a binary framing error)
)

// serverConn accumulates stream bytes and processes complete requests.
type serverConn struct {
	srv     *Server
	rx      iobuf.Stream
	resp    response
	mode    byte
	text    textSession
	counted bool // curr_connections already decremented for this conn
}

func (sc *serverConn) onData(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
	if sc.mode == modeClosed {
		return
	}
	// As in the paper's implementation, requests are parsed directly from
	// the buffer the driver filled (one element per segment) and never
	// written to; bytes accumulate only while a request spans deliveries.
	data := sc.rx.Take(payload)
	if len(data) == 0 {
		return
	}
	// Protocol auto-detection: the binary request magic 0x80 is not a
	// printable ASCII byte, so it can never begin a text command line.
	if sc.mode == modeDetect {
		if data[0] == MagicRequest {
			sc.mode = modeBinary
		} else {
			sc.mode = modeText
		}
	}
	if sc.mode == modeText {
		sc.onTextData(c, conn, data)
		return
	}
	// One coalesced response per delivery batch: responses to pipelined
	// requests aggregate into a single send, as the event-driven server
	// naturally does when multiple requests arrive in one interrupt.
	consumed := 0
	for {
		hdr, body, n, err := NextFrame(data[consumed:], MagicRequest)
		if err != nil {
			// Protocol error: drop the connection.
			if out := sc.resp.Take(); out != nil {
				out.Free()
			}
			sc.mode = modeClosed
			conn.Close(c)
			return
		}
		if n == 0 {
			// Retain any partial request.
			sc.rx.Keep(data, consumed, hdr.Reserve())
			break
		}
		sc.srv.handle(c, hdr, body, &sc.resp)
		consumed += n
	}
	if out := sc.resp.Take(); out != nil {
		conn.Send(c, out)
	}
}

// borrowMin is the shortest value a response lends to the send path
// instead of copying it behind its header. A lent value costs a view
// descriptor and starts a fresh element for the frame after it; a copied
// one costs its bytes. Measured with bench/run.sh -seed 1 -seconds 4: 256
// saves mc1_etc and cl_mget 4% of their bytes for 1.1% and 1.7% more
// objects and no wall time; 4096 changes neither (their values stop at
// 1KiB) and costs cl_write 1.3% more bytes for 0.1% fewer objects. It is
// below the MSS, so an inline frame always fits one payload element.
const borrowMin = 1024

// response is a batch's responses as the server writes them, in either
// protocol: records in payload elements from the connection's interface,
// each record whole in one element, and each lent value a view descriptor
// between them. The stack frees both once the peer has acknowledged them.
type response struct {
	iobuf.Frames
	views *iobuf.Pool
}

// record writes one response record: head bytes, which the caller fills
// in through the returned slice, then value, then tail. A value of
// borrowMin bytes or more - only a GET's stored value is that long, and
// Entry.Value is never written once stored - is lent rather than copied:
// the head announces it and a view of it follows, holding it for as long
// as the stack may retransmit it.
func (r *response) record(head int, value []byte, tail string) []byte {
	if len(value) < borrowMin {
		f := r.Next(head + len(value) + len(tail))
		copy(f[head+copy(f[head:], value):], tail)
		return f[:head]
	}
	f := r.Next(head)
	r.Link(r.views.View(value))
	if tail != "" {
		r.text(tail)
	}
	return f
}

// add writes one binary response frame.
func (r *response) add(req Header, status uint16, extras, value []byte, cas uint64) {
	f := r.record(HeaderLen+len(extras), value, "")
	WriteHeader(f, Header{
		Magic:     MagicResponse,
		Opcode:    req.Opcode,
		ExtrasLen: byte(len(extras)),
		Status:    status,
		BodyLen:   uint32(len(extras) + len(value)),
		Opaque:    req.Opaque,
		CAS:       cas,
	})
	copy(f[HeaderLen:], extras)
}

// addStat writes one binary STAT response frame: the statistic's name
// travels in the key field and its value in the value field, no extras. An
// empty name/value pair is the sequence terminator.
func (r *response) addStat(req Header, name, value string) {
	f := r.Next(HeaderLen + len(name) + len(value))
	WriteHeader(f, Header{
		Magic:   MagicResponse,
		Opcode:  req.Opcode,
		KeyLen:  uint16(len(name)),
		Status:  StatusOK,
		BodyLen: uint32(len(name) + len(value)),
		Opaque:  req.Opaque,
	})
	copy(f[HeaderLen:], name)
	copy(f[HeaderLen+len(name):], value)
}

// onTextData runs the text-protocol state machine over the coalesced
// stream, with the same retain-the-tail and single-send-per-batch
// discipline as the binary path.
func (sc *serverConn) onTextData(c *event.Ctx, conn appnet.Conn, data []byte) {
	consumed, quit := sc.srv.handleText(c, &sc.text, data, &sc.resp)
	if quit {
		consumed = len(data)
	}
	sc.rx.Keep(data, consumed, 0)
	if out := sc.resp.Take(); out != nil {
		conn.Send(c, out)
	}
	if quit {
		sc.mode = modeClosed
		conn.Close(c)
	}
}

// storeExpiry decodes the expiry a SET/ADD request carries: the stock
// 8-byte extras hold {flags, exptime u32} resolved under the stock
// relative/absolute rules, while the internal 12-byte dialect
// (SetAbsExpiryExtrasLen) carries an absolute virtual expiry verbatim.
func storeExpiry(hdr Header, body []byte, now sim.Time) sim.Time {
	if int(hdr.ExtrasLen) >= SetAbsExpiryExtrasLen {
		return sim.Time(int64(binary.BigEndian.Uint64(body[4:12])))
	}
	if hdr.ExtrasLen >= 8 {
		return AbsoluteExpiry(int64(binary.BigEndian.Uint32(body[4:8])), now)
	}
	return 0
}

// handle executes one request, writing any response to r.
func (s *Server) handle(c *event.Ctx, hdr Header, body []byte, r *response) {
	s.Requests++
	c.Charge(costs.MemcachedRequestNs + s.Store.OpCost(s.Cores))
	now := c.Now()
	s.maybeApplyFlush(now)
	keyStart := int(hdr.ExtrasLen)
	key := keyView(body[keyStart : keyStart+int(hdr.KeyLen)])

	switch hdr.Opcode {
	case OpGet, OpGetQ:
		e, ok := s.getForRead(key, now)
		if !ok {
			if hdr.Opcode == OpGetQ {
				return // quiet get suppresses misses
			}
			r.add(hdr, StatusKeyNotFound, nil, nil, 0)
			return
		}
		var extras [GetResponseExtrasLen]byte
		binary.BigEndian.PutUint32(extras[:4], e.Flags)
		binary.BigEndian.PutUint64(extras[4:], uint64(int64(e.Expires)))
		r.add(hdr, StatusOK, extras[:], e.Value, e.CAS)

	case OpSet, OpSetQ, OpAdd, OpAddQ, OpAppend, OpPrepend:
		s.stats.cmdSet++
		var flags uint32
		if hdr.ExtrasLen >= 4 {
			flags = binary.BigEndian.Uint32(body)
		}
		status, cas := s.store(binaryStoreModes[hdr.Opcode], key, body[keyStart+int(hdr.KeyLen):],
			flags, storeExpiry(hdr, body, now), hdr.CAS, now)
		if status == StatusOK && (hdr.Opcode == OpSetQ || hdr.Opcode == OpAddQ) {
			// An ADD losing to an existing entry is an error response even
			// for the quiet opcode, as in stock memcached; quiet suppresses
			// only successes.
			return
		}
		// As in stock memcached, a successful store echoes the entry's
		// newly stamped CAS in the response header.
		r.add(hdr, status, nil, nil, cas)

	case OpIncrement, OpDecrement:
		if hdr.ExtrasLen < CounterExtrasLen {
			r.add(hdr, StatusUnknownCmd, nil, nil, 0)
			return
		}
		delta := binary.BigEndian.Uint64(body[:8])
		initial := binary.BigEndian.Uint64(body[8:16])
		exptime := binary.BigEndian.Uint32(body[16:20])
		newVal, cas, status := s.applyDelta(key, delta, initial, exptime, hdr.Opcode == OpIncrement, now)
		if status != StatusOK {
			r.add(hdr, uint16(status), nil, nil, 0)
			return
		}
		var out [8]byte
		binary.BigEndian.PutUint64(out[:], newVal)
		r.add(hdr, StatusOK, nil, out[:], cas)

	case OpTouch:
		if hdr.ExtrasLen < 4 {
			r.add(hdr, StatusUnknownCmd, nil, nil, 0)
			return
		}
		exptime := int64(binary.BigEndian.Uint32(body[:4]))
		if !s.applyTouch(key, AbsoluteExpiry(exptime, now), now) {
			r.add(hdr, StatusKeyNotFound, nil, nil, 0)
			return
		}
		r.add(hdr, StatusOK, nil, nil, 0)

	case OpFlush:
		var delay int64
		if hdr.ExtrasLen >= 4 {
			delay = int64(binary.BigEndian.Uint32(body[:4]))
		}
		s.applyFlushAll(delay, now)
		r.add(hdr, StatusOK, nil, nil, 0)

	case OpDelete:
		if s.applyDelete(key, now) {
			r.add(hdr, StatusOK, nil, nil, 0)
			return
		}
		r.add(hdr, StatusKeyNotFound, nil, nil, 0)

	case OpNoop:
		r.add(hdr, StatusOK, nil, nil, 0)

	case OpStat:
		// One response packet per statistic - name in the key field, value
		// in the value field - terminated by an empty-key, empty-value
		// packet, per the stock binary protocol. The request's key selects
		// the group ("" general, "items", "slabs").
		lines, ok := s.statLines(key, now)
		if !ok {
			r.add(hdr, StatusKeyNotFound, nil, nil, 0)
			return
		}
		for _, st := range lines {
			r.addStat(hdr, st.name, st.value)
		}
		r.addStat(hdr, "", "")

	default:
		r.add(hdr, StatusUnknownCmd, nil, nil, 0)
	}
}

// storeMode is a storage command, run by store for both protocols (the
// binary one has no replace).
type storeMode byte

const (
	storeSet storeMode = iota + 1
	storeAdd
	storeReplace
	storeAppend
	storePrepend
)

// binaryStoreModes maps each storage opcode onto the mode store runs.
var binaryStoreModes = [256]storeMode{
	OpSet: storeSet, OpSetQ: storeSet, OpAdd: storeAdd, OpAddQ: storeAdd,
	OpAppend: storeAppend, OpPrepend: storePrepend,
}

// store runs one storage command for either protocol and reports the
// outcome as a binary status, with the stored entry's CAS on success.
// value is the request's, copied before the store keeps it. A nonzero
// stamp is a version stamp the request carried, which set and add store
// instead of minting one.
func (s *Server) store(mode storeMode, key string, value []byte, flags uint32, expires sim.Time, stamp uint64, now sim.Time) (status uint16, cas uint64) {
	switch mode {
	case storeSet:
		cur, ok := s.Store.Get(key)
		switch {
		case stamp == 0:
			cas = s.mintCAS(cur)
		case ok && cur.CAS >= stamp:
			// Replica-stamped store: the coordinator (the cluster client)
			// assigned this write's version stamp once, and every replica
			// stores that exact stamp - never a locally minted one, which
			// is what made R>1 stamps incomparable. Apply last-writer-wins
			// by stamp so replicas converge on the same {value, stamp}
			// regardless of delivery order; echo the winning stamp so the
			// coordinator can detect that its write was superseded. An
			// expired loser does not block the stamp comparison: the dead
			// entry's stamp still orders writes.
			return StatusOK, cur.CAS
		default:
			cas = stamp
		}
		value = append([]byte(nil), value...)
	case storeAdd:
		// A stamped ADD (migration stream) preserves the sender's version
		// stamp; a plain ADD mints a local one, even if it then loses. An
		// expired occupant does not defeat an ADD: getLive reclaims it
		// first, as in stock memcached.
		s.getLive(key, now)
		if cas = stamp; cas == 0 {
			cas = s.nextCAS()
		}
		if !s.Store.Add(key, &Entry{Value: append([]byte(nil), value...), Flags: flags, CAS: cas, Expires: expires, StoredAt: now}) {
			return StatusKeyExists, 0
		}
		s.stats.totalItems++
		return StatusOK, cas
	default:
		// Replace, append and prepend store only over a live entry; stock
		// memcached answers NOT_STORED when there is none. The lookup and
		// the store are atomic: the simulation kernel runs one event at a
		// time, so no other request interleaves between them.
		cur, ok := s.getLive(key, now)
		if !ok {
			return StatusNotStored, 0
		}
		cas = s.mintCAS(cur)
		if mode == storeReplace {
			value = append([]byte(nil), value...)
			break
		}
		// Concatenation keeps the entry's flags and expiry (stock
		// memcached ignores the request's) but takes a fresh CAS: the
		// value changed, and the hot-key cache's newest-wins rule needs
		// to see that.
		head, tail := cur.Value, value
		if mode == storePrepend {
			head, tail = value, cur.Value
		}
		value = append(append(make([]byte, 0, len(head)+len(tail)), head...), tail...)
		flags, expires = cur.Flags, cur.Expires
	}
	if !s.Store.Set(key, &Entry{Value: value, Flags: flags, CAS: cas, Expires: expires, StoredAt: now}) {
		return StatusOutOfMemory, 0
	}
	s.stats.totalItems++
	return StatusOK, cas
}

// Counter statuses applyDelta reports (a subset of the binary response
// statuses; the text layer maps them onto its CLIENT_ERROR lines).
//
// applyDelta implements incr/decr, shared by both protocols. The stored
// value must be an ASCII decimal uint64 - anything else (including a
// value with leading/trailing junk) is StatusDeltaBadval. incr wraps at
// 2^64, decr clamps at 0, both as stock memcached does. On a miss the
// binary protocol may seed the counter with initial (exptime !=
// CounterNoCreate); the text protocol always passes CounterNoCreate so
// a miss is NOT_FOUND.
func (s *Server) applyDelta(key string, delta, initial uint64, exptime uint32, incr bool, now sim.Time) (newVal, cas uint64, status int) {
	cur, ok := s.getLive(key, now)
	if !ok {
		// A miss counts as one even when the binary protocol then seeds
		// the counter from initial, matching stock's incr_misses.
		if incr {
			s.stats.incrMisses++
		} else {
			s.stats.decrMisses++
		}
		if exptime == CounterNoCreate {
			return 0, 0, StatusKeyNotFound
		}
		cas = s.nextCAS()
		e := &Entry{Value: []byte(strconv.FormatUint(initial, 10)), CAS: cas,
			Expires: AbsoluteExpiry(int64(exptime), now), StoredAt: now}
		if !s.Store.Set(key, e) {
			return 0, 0, StatusOutOfMemory
		}
		s.stats.totalItems++
		return initial, cas, StatusOK
	}
	v, err := parseCounterValue(cur.Value)
	if err != nil {
		return 0, 0, StatusDeltaBadval
	}
	if incr {
		v += delta // wraps at 2^64
	} else if v < delta {
		v = 0 // decr clamps at zero
	} else {
		v -= delta
	}
	cas = s.mintCAS(cur)
	e := &Entry{Value: []byte(strconv.FormatUint(v, 10)), Flags: cur.Flags, CAS: cas,
		Expires: cur.Expires, StoredAt: now}
	if !s.Store.Set(key, e) {
		return 0, 0, StatusOutOfMemory
	}
	if incr {
		s.stats.incrHits++
	} else {
		s.stats.decrHits++
	}
	return v, cas, StatusOK
}

// parseCounterValue parses a stored value as the decimal uint64 the
// counter commands operate on.
func parseCounterValue(v []byte) (uint64, error) {
	if len(v) == 0 || len(v) > 20 {
		return 0, strconv.ErrSyntax
	}
	return strconv.ParseUint(string(v), 10, 64)
}

// applyTouch updates a live entry's expiry in place without changing
// its value or CAS (stock touch does not bump CAS).
func (s *Server) applyTouch(key string, expires sim.Time, now sim.Time) bool {
	s.stats.cmdTouch++
	cur, ok := s.getLive(key, now)
	if !ok {
		s.stats.touchMisses++
		return false
	}
	s.Store.Set(key, &Entry{Value: cur.Value, Flags: cur.Flags, CAS: cur.CAS,
		Expires: expires, StoredAt: cur.StoredAt})
	s.stats.touchHits++
	return true
}

// applyFlushAll arms the flush deadline: delay 0 kills everything
// stored up to now immediately, delay > 0 schedules the cut delay
// seconds out (stock flush_all's oldest_live). A later flush_all
// supersedes a pending one.
func (s *Server) applyFlushAll(delay int64, now sim.Time) {
	s.stats.cmdFlush++
	if delay < 0 {
		delay = 0
	}
	if delay == 0 {
		// "Everything stored up to and including now" - entries stored at
		// exactly this instant die too, so the cut sits just past it.
		s.flushAt = now + 1
		s.maybeApplyFlush(now + 1)
		return
	}
	s.flushAt = now + sim.Time(delay)*sim.Second
}
