package memcached

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/mem"
	"ebbrt/internal/sim"
)

// FuzzBinaryTextParity runs one op sequence through a text connection to
// one server and a binary connection to another, each op reaching both in
// the same event, at the same instant. After every op the two must hold
// the same entries - value, flags, expiry and CAS per key - and the same
// counters: the wire formats are two encodings of one storage path. What
// a GET of each key would answer on either server must also be a state a
// model of the ops allows (parityModel), so a bug both servers share
// fails too. Each delivered buffer is scribbled over once its delivery
// returns, and every key either server holds must be one the script
// named: a stored key that still viewed a request's bytes would corrupt
// both servers alike, which the comparison alone would pass. Each server's value pools must have out
// exactly one element per resident entry whose value a GET would lend,
// and the responses' pools none once the op's replies are sent and freed:
// no element leaks, and none is freed twice (which panics). Each sequence
// runs over a pair of RCU stores and again over a pair of bounded stores
// with room for a few entries (crampedStore), which evict, refuse and
// reuse the items and buffers they let go; under the iobufdebug build tag
// a reused key or value that something still read would read poisoned.
func FuzzBinaryTextParity(f *testing.F) {
	for _, ops := range paritySeeds {
		f.Add(encodeParity(ops))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeParity(data)
		runParity(t, ops, "rcu", func(func() sim.Time) Store { return NewRCUStore() })
		runParity(t, ops, "bounded", crampedStore)
	})
}

// crampedStore is a bounded store with four pages to spare: ballast takes
// the rest of its one block.
func crampedStore(clock func() sim.Time) Store {
	s := NewBoundedStore(boundedTestBudget, EvictLRU, clock)
	s.pages.Alloc(2, 0) // splits the block, leaving one free block of each order from 2 up
	for order := 3; order < mem.MaxOrder; order++ {
		s.pages.Alloc(order, 0)
	}
	return s
}

// runParity runs one op sequence over a text server and a binary server,
// each over a store newStore makes, and checks them after every op.
func runParity(t *testing.T, ops []parityOp, stores string, newStore func(clock func() sim.Time) Store) {
	t.Helper()
	k := sim.NewKernel()
	m := machine.New(k, machine.DefaultConfig("parity", 1))
	mgr := event.NewManager(m.Cores[0], event.DefaultCosts())
	txt, bin := NewServer(newStore(k.Now), 1), NewServer(newStore(k.Now), 1)
	txtConn, binConn := &serverConn{srv: txt}, &serverConn{srv: bin}
	for _, sc := range []*serverConn{txtConn, binConn} {
		sc.resp.Pool, sc.resp.views = iobuf.NewPool(2048), iobuf.NewPool(0)
	}
	out := &fakeConn{}
	named := map[string]bool{}
	_, evicts := txt.Store.(*BoundedStore)
	model := &parityModel{keys: map[string][]parityState{}, evicts: evicts}
	for i, op := range ops {
		model.apply(op, k.Now())
		if op.verb == "wait" {
			k.RunFor(op.wait)
			continue
		}
		named[op.key] = true
		mgr.Spawn(func(c *event.Ctx) {
			txtReq, binReq := op.text(), op.binary(uint32(i))
			txtConn.onData(c, out, iobuf.Wrap(txtReq))
			clear(txtReq)
			binConn.onData(c, out, iobuf.Wrap(binReq))
			clear(binReq)
		})
		k.RunFor(sim.Millisecond)
		out.out = out.out[:0]
		for _, srv := range []*Server{txt, bin} {
			if wrong := model.check(srv, k.Now()); wrong != "" {
				t.Fatalf("%s stores: op %d (%s %q) left a server outside the model: %s", stores, i, op.verb, op.key, wrong)
			}
		}
		if diff := parityDiff(txt, bin); diff != "" {
			t.Fatalf("%s stores: op %d (%s %q) left the servers apart: %s", stores, i, op.verb, op.key, diff)
		}
		for _, srv := range []*Server{txt, bin} {
			if stray := strayKey(srv, named); stray != "" {
				t.Fatalf("%s stores: op %d (%s %q) left key %s, which no op named", stores, i, op.verb, op.key, stray)
			}
			if out, lent := valuesOut(srv), sumEntries(srv, lentElements); out != lent {
				t.Fatalf("%s stores: op %d (%s %q) left %d value elements out for %d entries a GET would lend", stores, i, op.verb, op.key, out, lent)
			}
		}
		for _, sc := range []*serverConn{txtConn, binConn} {
			if n, v := sc.resp.Pool.Outstanding(), sc.resp.views.Outstanding(); n != 0 || v != 0 {
				t.Fatalf("%s stores: op %d (%s %q) left %d response elements and %d views out", stores, i, op.verb, op.key, n, v)
			}
		}
	}
}

// parityState is a state the model allows a key after an op: absent, or
// holding value with flags. A mortal state may die - its entry carries an
// expiry, or a flush_all may reach it - so its key may be absent too.
type parityState struct {
	absent bool
	value  string
	flags  uint32
	mortal bool
}

// parityModel is what the ops should leave: every state each key the ops
// named may be in. A key has more than one where the model cannot know
// which: the entry may have died (expiry, flush_all, or, in a bounded
// store, an eviction or a refused store after any op), and an add or an
// append then takes one branch or the other.
type parityModel struct {
	keys     map[string][]parityState
	flushEnd sim.Time // a store up to here may die by a flush_all
	evicts   bool
}

// apply moves the model over op, issued at now.
func (m *parityModel) apply(op parityOp, now sim.Time) {
	switch op.verb {
	case "flush_all":
		m.flushEnd = max(m.flushEnd, now+sim.Time(op.exptime)*sim.Second)
		for _, states := range m.keys {
			for i := range states {
				states[i].mortal = !states[i].absent
			}
		}
	case "wait", "get":
	default:
		states, ok := m.keys[op.key]
		if !ok {
			states = []parityState{{absent: true}}
		}
		for i := range states {
			states[i] = m.step(states[i], op, now)
		}
		m.keys[op.key] = states
	}
	for key, states := range m.keys {
		if m.evicts || slices.ContainsFunc(states, func(s parityState) bool { return s.mortal }) {
			states = append(states, parityState{absent: true})
		}
		var distinct []parityState
		for _, s := range states {
			if !slices.Contains(distinct, s) {
				distinct = append(distinct, s)
			}
		}
		m.keys[key] = distinct
	}
}

// step is one state of op's key after op.
func (m *parityModel) step(s parityState, op parityOp, now sim.Time) parityState {
	stored := parityState{value: string(op.value), flags: op.flags, mortal: op.exptime != 0 || (m.flushEnd != 0 && now <= m.flushEnd)}
	switch {
	case op.verb == "set", op.verb == "add" && s.absent:
		return stored
	case op.verb == "delete":
		return parityState{absent: true}
	case s.absent:
		return s // nothing else creates an entry
	}
	switch op.verb {
	case "append":
		s.value += string(op.value)
	case "prepend":
		s.value = string(op.value) + s.value
	case "incr", "decr":
		v, err := parseCounterValue([]byte(s.value))
		switch {
		case err != nil:
		case op.verb == "incr":
			s.value = strconv.FormatUint(v+op.delta, 10)
		default:
			s.value = strconv.FormatUint(v-min(v, op.delta), 10)
		}
	case "touch":
		s.mortal = s.mortal || op.exptime != 0
	}
	return s
}

// check says which key srv answers outside the model, "" if none.
func (m *parityModel) check(srv *Server, now sim.Time) string {
	held := entries(srv)
	for _, key := range slices.Sorted(maps.Keys(m.keys)) {
		got := parityState{absent: true}
		if e := held[key]; e != nil && srv.EntryLive(e, now) {
			got = parityState{value: string(e.AppendValue(nil)), flags: e.Flags}
		}
		allowed := slices.ContainsFunc(m.keys[key], func(s parityState) bool {
			return s.absent == got.absent && s.value == got.value && s.flags == got.flags
		})
		if !allowed {
			var want []string
			for _, s := range m.keys[key] {
				want = append(want, describeState(s))
			}
			return fmt.Sprintf("key %q reads %s, want one of [%s]", key, describeState(got), strings.Join(want, "; "))
		}
	}
	return ""
}

func describeState(s parityState) string {
	if s.absent {
		return "absent"
	}
	return fmt.Sprintf("%.40q (%d bytes), flags %d", s.value, len(s.value), s.flags)
}

// parityOp is one command in a form both wire formats carry: no replace
// (binary has none), a key with no space or control byte, an exptime
// below 2^32 and a value of at most MaxTextValue bytes.
type parityOp struct {
	verb    string // one of parityVerbs
	key     string
	value   []byte
	flags   uint32
	exptime uint32   // set, add and touch; flush_all's delay in seconds
	delta   uint64   // incr and decr
	wait    sim.Time // wait: virtual time that passes before the next op
}

var parityVerbs = []string{"set", "add", "append", "prepend", "incr", "decr", "touch", "delete", "get", "flush_all", "wait"}

// parityKeys are the keys a short key byte picks, so that ops collide.
var parityKeys = []string{"alpha", "beta", "gamma", "n"}

// decodeParity turns fuzz input into at most 64 ops. An op is a verb byte
// and its arguments, big-endian, zero once the input runs out: a key byte
// (below 0x80 one of parityKeys, else that many bytes less 0x7f follow,
// spaces and control bytes read as '_'); flags and exptime, 4 bytes each,
// for set and add; a value for set, add, append and prepend, whose 2-byte
// length with the top bit set means that many 32-byte runs of the next
// byte instead of literal bytes; delta (8) for incr and decr; exptime (4)
// for touch; the delay (1) for flush_all; and 10 ms units (2) for wait.
func decodeParity(data []byte) []parityOp {
	in := &parityReader{data}
	var ops []parityOp
	budget := MaxTextValue // value bytes per input
	for len(in.data) > 0 && len(ops) < 64 {
		op := parityOp{verb: parityVerbs[int(in.uint(1))%len(parityVerbs)]}
		switch op.verb {
		case "flush_all":
			op.exptime = uint32(in.uint(1))
		case "wait":
			op.wait = sim.Time(in.uint(2)) * 10 * sim.Millisecond
		default:
			op.key = in.key()
		}
		switch op.verb {
		case "set", "add":
			op.flags, op.exptime = uint32(in.uint(4)), uint32(in.uint(4))
			op.value = in.value(&budget)
		case "append", "prepend":
			op.value = in.value(&budget)
		case "incr", "decr":
			op.delta = in.uint(8)
		case "touch":
			op.exptime = uint32(in.uint(4))
		}
		ops = append(ops, op)
	}
	return ops
}

// parityReader hands out an input's bytes.
type parityReader struct{ data []byte }

func (p *parityReader) bytes(n int) []byte {
	b := p.data[:min(n, len(p.data))]
	p.data = p.data[len(b):]
	return b
}

func (p *parityReader) uint(n int) uint64 {
	var v uint64
	for _, b := range p.bytes(n) {
		v = v<<8 | uint64(b)
	}
	return v
}

func (p *parityReader) key() string {
	kb := byte(p.uint(1))
	if kb < 0x80 {
		return parityKeys[int(kb)%len(parityKeys)]
	}
	key := bytes.Clone(p.bytes(int(kb) - 0x7f))
	if len(key) == 0 {
		return parityKeys[0]
	}
	for i, c := range key {
		if c <= ' ' || c == 0x7f {
			key[i] = '_'
		}
	}
	return string(key)
}

func (p *parityReader) value(budget *int) []byte {
	n := int(p.uint(2))
	if n&0x8000 == 0 {
		return p.bytes(n)
	}
	n = min((n&0x7fff)<<5, *budget)
	*budget -= n
	return bytes.Repeat([]byte{byte(p.uint(1))}, n)
}

// encodeParity is decodeParity's inverse for the seed sequences, whose
// keys are spelled out and whose values are literal.
func encodeParity(ops []parityOp) []byte {
	var b []byte
	for _, op := range ops {
		b = append(b, byte(slices.Index(parityVerbs, op.verb)))
		switch op.verb {
		case "flush_all":
			b = append(b, byte(op.exptime))
		case "wait":
			b = binary.BigEndian.AppendUint16(b, uint16(op.wait/(10*sim.Millisecond)))
		default:
			b = append(append(b, byte(0x7f+len(op.key))), op.key...)
		}
		switch op.verb {
		case "set", "add":
			b = binary.BigEndian.AppendUint32(b, op.flags)
			b = binary.BigEndian.AppendUint32(b, op.exptime)
			b = append(binary.BigEndian.AppendUint16(b, uint16(len(op.value))), op.value...)
		case "append", "prepend":
			b = append(binary.BigEndian.AppendUint16(b, uint16(len(op.value))), op.value...)
		case "incr", "decr":
			b = binary.BigEndian.AppendUint64(b, op.delta)
		case "touch":
			b = binary.BigEndian.AppendUint32(b, op.exptime)
		}
	}
	return b
}

// text is the op as a text command.
func (op parityOp) text() []byte {
	switch op.verb {
	case "set", "add", "append", "prepend":
		return fmt.Appendf(nil, "%s %s %d %d %d\r\n%s\r\n", op.verb, op.key, op.flags, op.exptime, len(op.value), op.value)
	case "incr", "decr":
		return fmt.Appendf(nil, "%s %s %d\r\n", op.verb, op.key, op.delta)
	case "touch":
		return fmt.Appendf(nil, "touch %s %d\r\n", op.key, op.exptime)
	case "flush_all":
		return fmt.Appendf(nil, "flush_all %d\r\n", op.exptime)
	}
	return fmt.Appendf(nil, "%s %s\r\n", op.verb, op.key)
}

// binary is the op as a binary request.
func (op parityOp) binary(opaque uint32) []byte {
	key := []byte(op.key)
	switch op.verb {
	case "set", "add":
		r := Request{Opcode: OpSet, Key: key, Value: op.value}
		if op.verb == "add" {
			r.Opcode = OpAdd
		}
		r.extra32(op.flags)
		r.extra32(op.exptime)
		return r.Build(opaque)
	case "append":
		return Request{Opcode: OpAppend, Key: key, Value: op.value}.Build(opaque)
	case "prepend":
		return Request{Opcode: OpPrepend, Key: key, Value: op.value}.Build(opaque)
	case "incr", "decr":
		return counterRequest(key, op.delta, 0, CounterNoCreate, op.verb == "incr").Build(opaque)
	case "touch":
		return touchRequest(key, op.exptime).Build(opaque)
	case "flush_all":
		r := Request{Opcode: OpFlush}
		r.extra32(op.exptime)
		return r.Build(opaque)
	case "delete":
		return Request{Opcode: OpDelete, Key: key}.Build(opaque)
	}
	return BuildGet(key, opaque)
}

// lentElements is how many elements of the server's own an entry's value
// lies in when the server stored it: none for a value a GET copies, one
// for a longer one under valueChunk bytes, else a chunk per valueChunk
// bytes and one element for the rest.
func lentElements(e *Entry) int {
	switch n := e.Len(); {
	case n < borrowMin:
		return 0
	case n < valueChunk:
		return 1
	default:
		return (n + valueChunk - 1) / valueChunk
	}
}

// parityDiff says how the text server's state differs from the binary
// server's, "" if it does not.
func parityDiff(txt, bin *Server) string {
	if txt.stats != bin.stats || txt.Requests != bin.Requests || txt.ExpiredReclaimed != bin.ExpiredReclaimed {
		return fmt.Sprintf("counters: text %+v, %d requests, %d reclaimed; binary %+v, %d, %d",
			txt.stats, txt.Requests, txt.ExpiredReclaimed, bin.stats, bin.Requests, bin.ExpiredReclaimed)
	}
	te, be := entries(txt), entries(bin)
	if len(te) != len(be) {
		return fmt.Sprintf("text holds %d entries, binary %d", len(te), len(be))
	}
	for _, key := range slices.Sorted(maps.Keys(te)) {
		t, b := te[key], be[key]
		if b == nil || !bytes.Equal(t.Value, b.Value) || t.Flags != b.Flags || t.Expires != b.Expires || t.CAS != b.CAS {
			return fmt.Sprintf("entry %q: text %s, binary %s", key, describeEntry(t), describeEntry(b))
		}
	}
	return ""
}

// entries copies out what srv's store holds, by key. It reads through
// Scan, not Get, which moves a bounded store's item to the front of its
// LRU list: a check that did would change what the next op evicts on the
// one server it looked up.
func entries(srv *Server) map[string]*Entry {
	m := map[string]*Entry{}
	srv.Store.Scan(func(k string, e *Entry) bool {
		m[k] = &Entry{Value: e.AppendValue(nil), Flags: e.Flags, CAS: e.CAS, Expires: e.Expires, StoredAt: e.StoredAt}
		return true
	})
	return m
}

func describeEntry(e *Entry) string {
	if e == nil {
		return "absent"
	}
	return fmt.Sprintf("%.40q (%d bytes), flags %d, expires %d, CAS %d", e.Value, len(e.Value), e.Flags, e.Expires, e.CAS)
}

// paritySeeds are the fuzz target's seed sequences: the op table of the
// test it replaced, then expiry over virtual time, then counters and
// concatenation, then every way a store lets a value a GET lends go, then
// the cramped bounded store's evictions, re-inserts and refusals.
var paritySeeds = [][]parityOp{
	{
		{verb: "set", key: "alpha", value: []byte("one"), flags: 1},
		{verb: "set", key: "beta", value: []byte("two"), flags: 2},
		{verb: "add", key: "alpha", value: []byte("CLOBBER"), flags: 9}, // exists: rejected
		{verb: "add", key: "gamma", value: []byte("three"), flags: 3},   // absent: stored
		{verb: "set", key: "beta", value: []byte("two-v2"), flags: 22},  // overwrite
		{verb: "delete", key: "gamma"},
		{verb: "delete", key: "missing"},
	},
	{
		{verb: "set", key: "alpha", value: []byte("v"), flags: 5, exptime: 2},            // relative
		{verb: "set", key: "beta", value: []byte("w"), flags: 6, exptime: 1_700_000_100}, // absolute, live
		{verb: "add", key: "gamma", value: []byte("x"), flags: 7, exptime: 2_600_000},    // absolute, past
		{verb: "get", key: "alpha"},
		{verb: "touch", key: "beta", exptime: 30},
		{verb: "wait", wait: 3 * sim.Second},
		{verb: "get", key: "alpha"},                                            // expired: reclaimed
		{verb: "add", key: "gamma", value: []byte("y"), flags: 8, exptime: 60}, // dead occupant yields
		{verb: "flush_all", exptime: 2},
		{verb: "set", key: "n", value: []byte("late"), exptime: 100},
		{verb: "wait", wait: 2 * sim.Second},
		{verb: "get", key: "beta"},
	},
	{
		{verb: "incr", key: "n", delta: 1}, // miss: not created
		{verb: "set", key: "n", value: []byte("41"), flags: 3, exptime: 10},
		{verb: "incr", key: "n", delta: 1},
		{verb: "decr", key: "n", delta: 100},     // clamps at zero
		{verb: "incr", key: "n", delta: 1 << 63}, // and twice wraps
		{verb: "incr", key: "n", delta: 1 << 63},
		{verb: "append", key: "n", value: []byte("x")},
		{verb: "incr", key: "n", delta: 1}, // non-numeric
		{verb: "prepend", key: "n", value: []byte("pre-")},
		{verb: "append", key: "absent", value: []byte("x")},
		{verb: "set", key: "bulk", value: bytes.Repeat([]byte("b"), 4096), flags: 1, exptime: 5},
		{verb: "append", key: "bulk", value: []byte("tail")},
		{verb: "get", key: "bulk"},
		{verb: "delete", key: "n"},
		{verb: "touch", key: "n", exptime: 1},
	},
	{
		{verb: "set", key: "alpha", value: bytes.Repeat([]byte("a"), 2048)},
		{verb: "get", key: "alpha"},
		{verb: "touch", key: "alpha", exptime: 100},
		{verb: "set", key: "alpha", value: bytes.Repeat([]byte("A"), 3000)}, // overwrite
		{verb: "prepend", key: "alpha", value: []byte("x")},
		{verb: "add", key: "alpha", value: bytes.Repeat([]byte("L"), 1024)}, // loses
		{verb: "delete", key: "alpha"},
		{verb: "set", key: "beta", value: bytes.Repeat([]byte("b"), 1500), exptime: 1},
		{verb: "wait", wait: 2 * sim.Second},
		{verb: "get", key: "beta"}, // expired: reclaimed
		{verb: "set", key: "gamma", value: bytes.Repeat([]byte("g"), 1024)},
		{verb: "flush_all"},
		{verb: "get", key: "gamma"},
	},
	{
		// Four entries of one 4,096-byte page's slab class, then three
		// of one a page each: the cramped store's four pages are taken.
		{verb: "set", key: "alpha", value: bytes.Repeat([]byte("a"), 900)},
		{verb: "set", key: "beta", value: bytes.Repeat([]byte("b"), 901)},
		{verb: "set", key: "gamma", value: bytes.Repeat([]byte("c"), 902)},
		{verb: "set", key: "n", value: bytes.Repeat([]byte("n"), 903)},
		{verb: "set", key: "k-big-1", value: bytes.Repeat([]byte("1"), 3000)},
		{verb: "set", key: "k-big-2", value: bytes.Repeat([]byte("2"), 3001)},
		{verb: "set", key: "k-big-3", value: bytes.Repeat([]byte("3"), 3002)},
		{verb: "set", key: "k-evicts", value: bytes.Repeat([]byte("e"), 904)}, // evicts alpha
		{verb: "get", key: "alpha"},
		{verb: "set", key: "alpha", value: bytes.Repeat([]byte("A"), 905)}, // re-inserted: evicts beta
		{verb: "get", key: "alpha"},
		{verb: "get", key: "beta"},
		{verb: "append", key: "gamma", value: []byte("-tail")},
		{verb: "set", key: "k-big-4", value: bytes.Repeat([]byte("4"), 3003)}, // evicts k-big-1
		{verb: "set", key: "k-big-2", value: []byte("short")},                 // no page for its class: refused, and gone
		{verb: "get", key: "k-big-2"},
		{verb: "add", key: "k-big-1", value: bytes.Repeat([]byte("5"), 2500)}, // in the slot the refusal freed
		{verb: "delete", key: "gamma"},
		{verb: "set", key: "beta", value: bytes.Repeat([]byte("B"), 906)}, // in gamma's slot, with its buffers
		{verb: "get", key: "beta"},
		{verb: "get", key: "n"},
	},
}
