package memcached

import (
	"bytes"
	"fmt"
	"testing"

	"ebbrt/internal/apps/appnet"
	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
	"ebbrt/internal/machine"
	"ebbrt/internal/sim"
	"ebbrt/internal/testbed"
)

// loanSize is the length of the lent values below: over borrowMin, three
// segments long, and charged to the bounded store's 4096-byte slab class
// under a one-byte key or a fillKey.
const loanSize = 4000

func fillKey(i int) string { return fmt.Sprintf("f%05d", i) }

// loanValue is loanSize bytes that differ from every other seed's.
func loanValue(seed byte) []byte {
	v := make([]byte, loanSize)
	for i := range v {
		v[i] = byte(i*7) ^ seed
	}
	return v
}

// boundedSlabCapacity is how many loanSize values under fillKeys a
// one-block bounded store holds before its first eviction.
func boundedSlabCapacity() int {
	s := NewBoundedStore(boundedTestBudget, EvictFIFO, nil)
	for i := 0; ; i++ {
		s.Set(fillKey(i), &Entry{Value: make([]byte, loanSize)})
		if s.Stats().Evictions > 0 {
			return i
		}
	}
}

// valuesOut is the elements a server's value and chunk pools have out.
func valuesOut(s *Server) int {
	n := 0
	for _, p := range append(s.values[:], s.chunks) {
		if p != nil {
			n += p.Outstanding()
		}
	}
	return n
}

// sumEntries sums f over the entries a server's store holds.
func sumEntries(s *Server, f func(e *Entry) int) int {
	n := 0
	s.Store.Scan(func(_ string, e *Entry) bool {
		n += f(e)
		return true
	})
	return n
}

// elements is how many elements of the server's own an entry's value
// lies in.
func elements(e *Entry) int {
	if e.elem == nil {
		return 0
	}
	return e.elem.CountChainElements()
}

// dialInto opens a client connection to the pair's server whose replies
// are appended to *rx.
func dialInto(t *testing.T, p *testbed.Pair, rx *[]byte) appnet.Conn {
	t.Helper()
	var conn appnet.Conn
	p.Client.Mgrs()[0].Spawn(func(c *event.Ctx) {
		p.Client.Dial(c, testbed.ServerIP, Port, appnet.Callbacks{
			OnData: func(c *event.Ctx, conn appnet.Conn, payload *iobuf.IOBuf) {
				*rx = payload.AppendTo(*rx)
			},
		}, func(c *event.Ctx, cn appnet.Conn) { conn = cn })
	})
	p.K.RunFor(10 * sim.Millisecond)
	if conn == nil {
		t.Fatal("client did not connect")
	}
	return conn
}

// send delivers the requests to the server in one segment train.
func send(p *testbed.Pair, conn appnet.Conn, reqs ...[]byte) {
	p.Client.Mgrs()[0].Spawn(func(c *event.Ctx) {
		conn.Send(c, iobuf.Wrap(bytes.Join(reqs, nil)))
	})
}

// A GET lends a stored value of borrowMin bytes or more: its response
// holds the value's element until the client has acknowledged every byte,
// whatever the store does with the entry meanwhile. Each case stores a
// value through the wire, GETs it on one connection while the link drops
// every frame that carries it, lets the store let the entry go - or, for
// touch, re-store it - through a second connection, and has two more
// values of its size class stored there: an element freed at the release
// instead of at acknowledgment is handed to one of them and overwritten.
// Only then does the link let the GET's retransmissions through, and the
// reply must be byte-exact. (Under iobufdebug a premature release also
// reads poisoned, and the stack's in-flight checksum panics.) Once
// everything is acknowledged, two more values of the class are stored, the
// store must still hold what it should under k, and the value pools must
// have exactly the elements of the entries still resident out.
func TestLentValueOutlivesItsRelease(t *testing.T) {
	key, v1 := []byte("k"), loanValue(1)
	capacity := boundedSlabCapacity()
	rcu := func() Store { return NewRCUStore() }
	fifo := func() Store { return NewBoundedStore(boundedTestBudget, EvictFIFO, nil) }
	flush := Request{Opcode: OpFlush}
	flush.extra32(0)
	for _, tc := range []struct {
		name    string
		text    bool // the GET is a text `get`
		store   func() Store
		fill    bool     // the store is filled to capacity behind k
		expires sim.Time // k's lifetime, 0 for none
		release []byte
		after   []byte // what the store holds under k afterwards, nil for nothing
	}{
		{name: "overwrite", store: rcu, release: BuildSet(key, loanValue(2), 0, 10), after: loanValue(2)},
		{name: "overwrite text get", text: true, store: rcu, release: BuildSet(key, loanValue(2), 0, 10), after: loanValue(2)},
		{name: "overwrite bounded", store: fifo, release: BuildSet(key, loanValue(2), 0, 10), after: loanValue(2)},
		{name: "delete", store: rcu, release: Request{Opcode: OpDelete, Key: key}.Build(10)},
		{name: "delete locked", store: func() Store { return NewLockedStore() }, release: Request{Opcode: OpDelete, Key: key}.Build(10)},
		{name: "eviction", store: fifo, fill: true, release: BuildSet([]byte(fillKey(capacity)), loanValue(3), 0, 10)},
		{name: "expiry reclaim", store: rcu, expires: 2 * sim.Millisecond, release: BuildGet(key, 10)},
		{name: "flush_all sweep", store: rcu, release: flush.Build(10)},
		{name: "touch", store: rcu, release: touchRequest(key, 100).Build(10), after: v1},
		// Over a full store whose every page the 4096-byte class holds, a
		// 100-byte value's class can get none: the overwrite is refused
		// and the entry it was to replace is gone.
		{name: "rejected insert", store: fifo, fill: true, release: BuildSet(key, make([]byte, 100), 0, 10)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := testbed.NewPair(testbed.EbbRT, 1, 2)
			srv := NewServer(tc.store(), 1)
			if err := srv.Serve(p.Server); err != nil {
				t.Fatal(err)
			}
			var rx, rx2 []byte
			conn, conn2 := dialInto(t, p, &rx), dialInto(t, p, &rx2)
			set := SetAbsExpiryRequest(key, v1, 0, 0, 0)
			if tc.expires != 0 {
				set = SetAbsExpiryRequest(key, v1, 0, 0, int64(p.K.Now()+tc.expires))
			}
			send(p, conn2, set.Build(1))
			p.K.RunFor(sim.Millisecond)
			e, ok := srv.Store.Get(string(key))
			if !ok || e.elem == nil || !bytes.Equal(e.Value, v1) {
				t.Fatal("the value was not stored in an element of the server's")
			}
			if tc.fill {
				for i := 1; i < capacity; i++ {
					srv.Store.Set(fillKey(i), &Entry{Value: make([]byte, loanSize)})
				}
			}
			at := map[*byte]bool{}
			for i := range e.Value {
				at[&e.Value[i]] = true
			}
			holding, dropped, resent := true, 0, 0
			p.Link.DropFn = func(idx uint64, f machine.Frame) bool {
				for el := f.Buf.Next(); el != f.Buf; el = el.Next() {
					if el.Length() > 0 && at[&el.Data()[0]] {
						if holding {
							dropped++
							return true
						}
						resent++
						return false
					}
				}
				return false
			}

			get, want := BuildGet(key, 2), []byte(nil)
			if tc.text {
				get = []byte("get k\r\n")
				want = append(append([]byte("VALUE k 0 4000\r\n"), v1...), "\r\nEND\r\n"...)
			}
			rx2 = rx2[:0]
			send(p, conn, get)
			p.K.RunFor(tc.expires + sim.Millisecond)
			send(p, conn2, tc.release,
				BuildSet([]byte("x1"), loanValue(3), 0, 11), BuildSet([]byte("x2"), loanValue(4), 0, 12))
			p.K.RunFor(sim.Millisecond)
			if hdrs, _ := parseResponses(t, rx2); len(hdrs) != 3 {
				t.Fatalf("%d responses to the release and the two stores, want 3", len(hdrs))
			}
			holding = false
			p.K.RunFor(2 * sim.Second)
			// Two more of the class, for an element the store let go of
			// while it still held the entry.
			send(p, conn2, BuildSet([]byte("x3"), loanValue(5), 0, 13), BuildSet([]byte("x4"), loanValue(6), 0, 14))
			p.K.RunFor(sim.Millisecond)

			if dropped == 0 || resent == 0 {
				t.Fatalf("%d frames of the GET dropped, %d resent: the retransmission path did not run", dropped, resent)
			}
			if tc.text {
				if !bytes.Equal(rx, want) {
					t.Fatalf("the text get read %d bytes, not the value it was lent (%d)", len(rx), len(want))
				}
			} else if hdrs, bodies := parseResponses(t, rx); len(hdrs) != 1 || hdrs[0].Status != StatusOK ||
				!bytes.Equal(bodies[0][GetResponseExtrasLen:], v1) {
				t.Fatalf("the GET read %d responses, not the value it was lent", len(hdrs))
			}
			if e, ok := srv.Store.Get(string(key)); ok != (tc.after != nil) || ok && !bytes.Equal(e.Value, tc.after) {
				t.Fatalf("after the release the store holds k: %v, want %v, or not the value it should", ok, tc.after != nil)
			}
			if out, resident := valuesOut(srv), sumEntries(srv, elements); out != resident {
				t.Fatalf("%d value elements out for %d that resident entries need", out, resident)
			}
		})
	}
}

// Every length a GET may lend that is shorter than a chunk, and so every
// rest of a chained value, has one class, in order of length: the
// smallest element of at least that length among eight an octave, so an
// element is never an eighth longer than its value or more. The last
// class's element is a chunk long.
func TestValueClasses(t *testing.T) {
	prevIdx, prevSize := -1, borrowMin-1
	for n := borrowMin; n < valueChunk; n++ {
		idx, size := valueClass(n)
		switch {
		case idx < 0 || idx >= valueClasses:
			t.Fatalf("%d bytes: class %d of %d", n, idx, valueClasses)
		case size < n || 8*(size-n) >= size:
			t.Fatalf("%d bytes: an element of %d", n, size)
		case idx == prevIdx && size != prevSize:
			t.Fatalf("%d bytes: class %d holds %d and %d bytes", n, idx, prevSize, size)
		case idx != prevIdx && (idx != prevIdx+1 || n != prevSize+1):
			t.Fatalf("%d bytes: class %d after class %d of %d bytes", n, idx, prevIdx, prevSize)
		}
		prevIdx, prevSize = idx, size
	}
	if prevIdx != valueClasses-1 || prevSize != valueChunk {
		t.Fatalf("the longest unchained value's class is %d of %d, of %d bytes", prevIdx, valueClasses, prevSize)
	}
}

// A Scan's snapshot holds its values' elements until Scan returns: an
// entry fn sees stays valid after fn deletes it, even when the server
// then stores a value of the same class, which a freed element would go
// to. Once the scan is over, the deleted entry's element is back.
func TestScanHoldsItsSnapshot(t *testing.T) {
	v1, v2 := loanValue(1), loanValue(2)
	for name, mk := range allStores() {
		t.Run(name, func(t *testing.T) {
			srv := NewServer(mk(), 1)
			srv.store(storeSet, "k", v1, 0, 0, 0, 0)
			srv.Store.Scan(func(key string, e *Entry) bool {
				srv.Store.Delete(key)
				srv.store(storeSet, "x", v2, 0, 0, 0, 0)
				if !bytes.Equal(e.Value, v1) {
					t.Error("an entry Scan passed changed once fn deleted it")
				}
				return false
			})
			if out := valuesOut(srv); out != 1 {
				t.Fatalf("%d value elements out after the scan, want 1 (x's)", out)
			}
		})
	}
}
