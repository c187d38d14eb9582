package memcached

import (
	"encoding/binary"
	"math/bits"
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

	// entry is the one Entry every store passes to Store.Set, which keeps
	// a copy: a request's entry costs the server nothing.
	entry Entry

	// values are the pools a value a GET may lend is copied into, one per
	// size class (valueClass), and chunks the pool of the chunks of a
	// value of valueChunk bytes or more, each made at its first use.
	values [valueClasses]*iobuf.Pool
	chunks *iobuf.Pool

	// short is the buffer a value under borrowMin is built in - a
	// request's, a join, a counter's - and lent to the store, which
	// copies what it keeps (Store borrows it).
	short []byte

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
// not a tombstone, not past its expiry, and not behind a due flush_all
// deadline.
func (s *Server) EntryLive(e *Entry, now sim.Time) bool {
	if e.tomb || e.Expired(now) {
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
	if ok && !s.EntryLive(e, now) {
		s.reclaim(key, e, now)
		return nil, false
	}
	return e, ok
}

// reclaim deletes a dead entry a lookup found and reports whether it
// counted as an expiry. A tombstone is kept until its deadline, and its
// reclaim counts as none: to a client its key was absent all along.
func (s *Server) reclaim(key string, e *Entry, now sim.Time) bool {
	if e.tomb {
		if e.Expired(now) {
			s.Store.Delete(key)
		}
		return false
	}
	s.Store.Delete(key)
	s.ExpiredReclaimed++
	return true
}

// getForRead is getLive plus the retrieval accounting: every key a get
// command looks up lands in exactly one of get_hits/get_misses, with a
// miss that reclaimed a dead entry additionally counted in get_expired.
func (s *Server) getForRead(key string, now sim.Time) (*Entry, bool) {
	e, ok := s.Store.Get(key)
	if ok && !s.EntryLive(e, now) {
		if s.reclaim(key, e, now) {
			s.stats.getExpired++
		}
		ok = false
	}
	if !ok {
		s.stats.getMisses++
		return nil, false
	}
	s.stats.getHits++
	return e, true
}

// tombstoneHorizon is how long a stamped Delete's tombstone lasts: longer
// than any stamped write it orders can stay in flight. The longest-lived
// is a migration stream's copy - the migrator gives up after 6 attempts
// of at most 25 ms and a 2 ms retry delay each (internal/cluster's
// migrationMaxAttempts, migrationJobTimeout and migrationRetryDelay: 162
// ms) - and a client's write lasts its request timeout (2 to 8 ms here).
const tombstoneHorizon = sim.Second

// applyDelete removes a live entry, shared by both protocols; the
// outcome feeds delete_hits/delete_misses. A dead entry answers
// NOT_FOUND, exactly as if it had already been reclaimed. A stamped
// delete (the cluster client's, binary only) leaves an entry with a
// newer stamp in place and still answers as a hit: under last-writer-
// wins the delete is ordered before that entry's write, wherever it is
// delivered. Otherwise it leaves a tombstone, present key or not, so an
// older stamped write landing within tombstoneHorizon is a no-op.
func (s *Server) applyDelete(key string, stamp uint64, now sim.Time) bool {
	_, hit := s.getLive(key, now)
	if stamp == 0 {
		hit = hit && s.Store.Delete(key)
	} else if old, ok := s.Store.Get(key); !ok || old.CAS <= stamp {
		s.set(key, Entry{CAS: stamp, Expires: now + tombstoneHorizon, StoredAt: now, tomb: true})
	}
	if hit {
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

// Stored values a GET may lend - borrowMin bytes and more - live in
// elements from the server's value pools, so that the GET responses
// lending one and the store that holds it share it by count, and an
// overwrite's elements go back to be the next SET's (the paper's IOBuf,
// §4.2). A value under valueChunk bytes lies in one element of its size
// class. The classes run eight to an octave, so an element is at most an
// eighth longer than the longest value of its class - about as close as
// the Go allocator's own size classes fit a fresh slice - and each keeps
// at most valueSpareBytes of spares: a pool that kept each class's every
// element back would keep a burst's worth of each for good. A longer
// value is a chain of valueChunk-byte chunks from one pool, which carves
// them chunkSlab at a time, plus one element of its class for the rest,
// or of borrowMin's class if the rest is shorter (memcached's own
// large-item chunking). Every chunk serves a value of any length, so the
// chunks an overwrite frees are the next SET's whatever its length, and
// the pool keeps at most chunkSpareBytes of them.
const (
	valueChunk      = 4 << 10
	valueClasses    = 17 // valueClass(valueChunk-1) + 1
	valueSpareBytes = 32 << 10
	chunkSpareBytes = 1 << 20
	chunkSlab       = 16
)

// valueClass returns the index and element size of the class a value of
// n bytes (borrowMin <= n < valueChunk) is stored in: n rounded up to a
// multiple of an eighth of the power of two below it.
func valueClass(n int) (idx, size int) {
	shift := bits.Len(uint(n-1)) - 4
	m := (n-1)>>shift + 1 // 9 to 16 eighths of 1<<(shift+3); 16 for borrowMin
	return (shift-7)*8 + m - 8, m << shift
}

// newValue returns an entry holding room for a value of n bytes, for the
// caller to fill (valueWriter), with one holder, the caller, of what it
// lies in: a chain whose views cover n bytes for a value of valueChunk
// bytes or more, one pool element for a shorter value a GET may lend,
// and for any other, which a GET copies behind its header instead, the
// server's reused buffer, which the store copies (Entry.borrowed).
func (s *Server) newValue(n int) Entry {
	switch {
	case n < borrowMin:
		return Entry{Value: s.shortValue()[:n], borrowed: true}
	case n >= valueChunk:
		return Entry{elem: s.chunkedValue(n)}
	}
	e := s.element(n)
	return Entry{Value: e.Append(n)[:n:n], elem: e}
}

// element returns an element of the class of n bytes (borrowMin <= n <
// valueChunk), with an empty view.
func (s *Server) element(n int) *iobuf.IOBuf {
	i, size := valueClass(n)
	p := s.values[i]
	if p == nil {
		p = iobuf.NewBoundedPool(size, max(1, valueSpareBytes/size))
		s.values[i] = p
	}
	return p.Get(n)
}

// chunkedValue returns the chain a value of n >= valueChunk bytes lies
// in: n/valueChunk chunks and an element for the rest, if there is one,
// each element's view covering its part of the value.
func (s *Server) chunkedValue(n int) *iobuf.IOBuf {
	if s.chunks == nil {
		s.chunks = iobuf.NewCarvedPool(valueChunk, chunkSpareBytes/valueChunk, chunkSlab)
	}
	var chain iobuf.Frames
	for ; n > 0; n -= valueChunk {
		var e *iobuf.IOBuf
		if n >= valueChunk {
			e = s.chunks.Get(valueChunk)
		} else {
			e = s.element(max(n, borrowMin))
		}
		e.Append(min(n, valueChunk))
		chain.Link(e)
	}
	return chain.Take()
}

// valueWriter fills what newValue made, flat or chained, from the front.
type valueWriter struct {
	dst  []byte       // what is left of the piece being filled
	next *iobuf.IOBuf // the element after it
}

// write copies src to the value's next bytes.
func (w *valueWriter) write(src []byte) {
	for len(src) > 0 {
		if len(w.dst) == 0 {
			w.dst, w.next = w.next.Data(), w.next.Next()
		}
		n := copy(w.dst, src)
		w.dst, src = w.dst[n:], src[n:]
	}
}

// shortValue is the server's buffer for a value under borrowMin.
func (s *Server) shortValue() []byte {
	if s.short == nil {
		s.short = make([]byte, borrowMin)
	}
	return s.short
}

// set stores e under key through the server's reused entry.
func (s *Server) set(key string, e Entry) bool {
	s.entry = e
	return s.Store.Set(key, &s.entry)
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
		s.set(keyView(keys[i]), Entry{Value: values[i], CAS: s.nextCAS()})
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
	skip    int  // bytes left of a refused binary request, discarded as they arrive
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
		if sc.skip > 0 {
			n := min(sc.skip, len(data)-consumed)
			consumed += n
			if sc.skip -= n; sc.skip > 0 {
				sc.rx.Keep(data, consumed, 0)
				break
			}
		}
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
		if hdr.Magic != 0 && int(hdr.BodyLen)-int(hdr.ExtrasLen)-int(hdr.KeyLen) > MaxTextValue {
			// Over the item limit: refused, as the text protocol refuses
			// it, and its body swallowed as it arrives, never buffered.
			sc.resp.add(hdr, StatusValueTooBig, nil, nil, 0)
			sc.skip = HeaderLen + int(hdr.BodyLen)
			continue
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
// in through the returned slice, then e's value, then tail. A value of
// borrowMin bytes or more - only a GET's stored value is that long, and
// no stored value is written once stored - is lent rather than copied:
// the head announces it and a view of each element it lies in follows
// (Entry.elem, a chain for a value of valueChunk bytes or more), which
// holds the element until the stack has no more use for it, however the
// store fares meanwhile; bytes in no element are only lent.
func (r *response) record(head int, e *Entry, tail string) []byte {
	if e.elem == nil && len(e.Value) < borrowMin {
		f := r.Next(head + len(e.Value) + len(tail))
		copy(f[head+copy(f[head:], e.Value):], tail)
		return f[:head]
	}
	f := r.Next(head)
	if e.elem == nil {
		r.Link(r.views.View(e.Value))
	}
	for el := e.elem; el != nil; {
		r.Link(r.views.ViewOf(el))
		if el = el.Next(); el == e.elem {
			break
		}
	}
	if tail != "" {
		r.text(tail)
	}
	return f
}

// add writes one binary response frame, whose value, if any, is under
// borrowMin bytes.
func (r *response) add(req Header, status uint16, extras, value []byte, cas uint64) {
	r.addLent(req, status, extras, &Entry{Value: value, CAS: cas})
}

// addLent is add for a stored entry's value, which it lends (record), and
// CAS.
func (r *response) addLent(req Header, status uint16, extras []byte, e *Entry) {
	f := r.record(HeaderLen+len(extras), e, "")
	WriteHeader(f, Header{
		Magic:     MagicResponse,
		Opcode:    req.Opcode,
		ExtrasLen: byte(len(extras)),
		Status:    status,
		BodyLen:   uint32(len(extras) + e.Len()),
		Opaque:    req.Opaque,
		CAS:       e.CAS,
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
		r.addLent(hdr, StatusOK, extras[:], e)

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
		if s.applyDelete(key, hdr.CAS, now) {
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
// value is the request's, copied (newValue) before the store sees it. A
// nonzero stamp is a version stamp the request carried, which set and add
// store instead of minting one.
func (s *Server) store(mode storeMode, key string, value []byte, flags uint32, expires sim.Time, stamp uint64, now sim.Time) (status uint16, cas uint64) {
	req := Entry{Value: value}
	head, tail := &req, &Entry{}
	switch mode {
	case storeSet:
		cur, ok := s.Store.Get(key)
		switch {
		case stamp == 0 && ok && cur.tomb:
			cas = s.nextCAS() // an unstamped store sees the key absent
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
			// entry's stamp still orders writes, a tombstone's included.
			return StatusOK, cur.CAS
		default:
			cas = stamp
		}
	case storeAdd:
		// A stamped ADD preserves the sender's version stamp; a plain ADD
		// mints a local one, even if it then loses. It stores over no live
		// entry - an expired occupant does not defeat it: getLive reclaims
		// it first, as in stock memcached - and over a tombstone unless it
		// is stamped and no newer. The lookup and the store are atomic, as
		// replace's below.
		if cas = stamp; cas == 0 {
			cas = s.nextCAS()
		}
		if cur, ok := s.Store.Get(key); ok && cur.tomb && stamp != 0 && cur.CAS >= stamp {
			return StatusKeyExists, 0
		}
		if _, ok := s.getLive(key, now); ok {
			return StatusKeyExists, 0
		}
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
			break
		}
		// Concatenation keeps the entry's flags and expiry (stock
		// memcached ignores the request's) but takes a fresh CAS: the
		// value changed, and the hot-key cache's newest-wins rule needs
		// to see that.
		head, tail = cur, &req
		if mode == storePrepend {
			head, tail = &req, cur
		}
		flags, expires = cur.Flags, cur.Expires
	}
	e := s.newValue(head.Len() + tail.Len())
	e.Flags, e.CAS, e.Expires, e.StoredAt = flags, cas, expires, now
	w := valueWriter{dst: e.Value, next: e.elem}
	for b := range head.pieces {
		w.write(b)
	}
	for b := range tail.pieces {
		w.write(b)
	}
	stored := s.set(key, e)
	e.free() // the store holds what it keeps
	if !stored {
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
		if !s.set(key, Entry{Value: strconv.AppendUint(s.shortValue()[:0], initial, 10), CAS: cas,
			Expires: AbsoluteExpiry(int64(exptime), now), StoredAt: now, borrowed: true}) {
			return 0, 0, StatusOutOfMemory
		}
		s.stats.totalItems++
		return initial, cas, StatusOK
	}
	// A chained value, valueChunk bytes or more, is no counter: its Value
	// is nil, which parses as none.
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
	if !s.set(key, Entry{Value: strconv.AppendUint(s.shortValue()[:0], v, 10), Flags: cur.Flags, CAS: cas,
		Expires: cur.Expires, StoredAt: now, borrowed: true}) {
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
	e := *cur // the same value, in the same element: the store holds it again
	e.Expires = expires
	s.set(key, e)
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
