package memcached

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
)

// FuzzBinaryTextParity runs one op sequence through a text connection to
// one server and a binary connection to another, each op reaching both in
// the same event, at the same instant. After every op the two must hold
// the same entries - value, flags, expiry and CAS per key - and the same
// counters: the wire formats are two encodings of one storage path. Each
// delivered buffer is scribbled over once its delivery returns, and every
// key either server holds must be one the script named: a stored key that
// still viewed a request's bytes would corrupt both servers alike, which
// the comparison alone would pass.
func FuzzBinaryTextParity(f *testing.F) {
	for _, ops := range paritySeeds {
		f.Add(encodeParity(ops))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		k := sim.NewKernel()
		m := machine.New(k, machine.DefaultConfig("parity", 1))
		mgr := event.NewManager(m.Cores[0], event.DefaultCosts())
		txt, bin := NewServer(NewRCUStore(), 1), NewServer(NewRCUStore(), 1)
		txtConn, binConn := &serverConn{srv: txt}, &serverConn{srv: bin}
		out := &fakeConn{}
		named := map[string]bool{}
		for i, op := range decodeParity(data) {
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
			if diff := parityDiff(txt, bin); diff != "" {
				t.Fatalf("op %d (%s %q) left the servers apart: %s", i, op.verb, op.key, diff)
			}
			for _, srv := range []*Server{txt, bin} {
				if stray := strayKey(srv, named); stray != "" {
					t.Fatalf("op %d (%s %q) left key %s, which no op named", i, op.verb, op.key, stray)
				}
			}
		}
	})
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
		return BuildCounter(key, op.delta, 0, CounterNoCreate, op.verb == "incr", opaque)
	case "touch":
		return BuildTouch(key, op.exptime, opaque)
	case "flush_all":
		r := Request{Opcode: OpFlush}
		r.extra32(op.exptime)
		return r.Build(opaque)
	case "delete":
		return BuildDelete(key, opaque)
	}
	return BuildGet(key, opaque)
}

// parityDiff says how the text server's state differs from the binary
// server's, "" if it does not.
func parityDiff(txt, bin *Server) string {
	if txt.stats != bin.stats || txt.Requests != bin.Requests || txt.ExpiredReclaimed != bin.ExpiredReclaimed {
		return fmt.Sprintf("counters: text %+v, %d requests, %d reclaimed; binary %+v, %d, %d",
			txt.stats, txt.Requests, txt.ExpiredReclaimed, bin.stats, bin.Requests, bin.ExpiredReclaimed)
	}
	if txt.Store.Len() != bin.Store.Len() {
		return fmt.Sprintf("text holds %d entries, binary %d", txt.Store.Len(), bin.Store.Len())
	}
	diff := ""
	txt.Store.Scan(func(key string, te *Entry) bool {
		be, _ := bin.Store.Get(key)
		if be == nil || !bytes.Equal(te.Value, be.Value) || te.Flags != be.Flags || te.Expires != be.Expires || te.CAS != be.CAS {
			diff = fmt.Sprintf("entry %q: text %s, binary %s", key, describeEntry(te), describeEntry(be))
			return false
		}
		return true
	})
	return diff
}

func describeEntry(e *Entry) string {
	if e == nil {
		return "absent"
	}
	return fmt.Sprintf("%.40q (%d bytes), flags %d, expires %d, CAS %d", e.Value, len(e.Value), e.Flags, e.Expires, e.CAS)
}

// paritySeeds are the fuzz target's seed sequences: the op table of the
// test it replaced, then expiry over virtual time, then counters and
// concatenation.
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
}
