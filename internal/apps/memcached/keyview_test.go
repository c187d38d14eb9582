package memcached

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"ebbrt/internal/event"
	"ebbrt/internal/iobuf"
)

// allStores are the three Store implementations, by name.
func allStores() map[string]func() Store {
	m := stores()
	m["bounded"] = func() Store { return NewBoundedStore(boundedTestBudget, EvictLRU, nil) }
	return m
}

// TestServerObjectBudget holds the server's request path to what it
// stores, request by request, inside one event handler: a lookup borrows
// the request's key bytes, so a GET hit, a GET or GETQ miss, a DELETE miss
// and a text `get` hit allocate nothing (one object each while every
// request's key was copied into a string, three for the text `get`, whose
// token slice grew per line). A SET over a resident key allocates its
// Entry and the value's copy, plus the RCU table's copy-on-update node on
// the RCU store and the key's copy on the locked one, whose map assignment
// stores the key it is given: 3 objects on the RCU store, 2 on the bounded
// one and 3 on the locked one (4 on the RCU and bounded stores while the
// key was copied per request and the bounded store built a new LRU item
// per overwrite).
func TestServerObjectBudget(t *testing.T) {
	value := bytes.Repeat([]byte("v"), 100)
	setAllocs := map[string]float64{"rcu": 3, "bounded": 2, "locked": 3}
	for name, mk := range allStores() {
		t.Run(name, func(t *testing.T) {
			srv := NewServer(mk(), 1)
			srv.Store.Set("small", &Entry{Value: value})
			r := &response{Frames: iobuf.Frames{Pool: iobuf.NewPool(2048)}, views: iobuf.NewPool(0)}
			binary := func(req []byte) func(c *event.Ctx) {
				hdr, body, n, err := NextFrame(req, MagicRequest)
				if err != nil || n != len(req) {
					t.Fatalf("request did not frame: %d of %d bytes, %v", n, len(req), err)
				}
				return func(c *event.Ctx) { srv.handle(c, hdr, body, r) }
			}
			text := func(req string) func(c *event.Ctx) {
				var ts textSession
				data := []byte(req)
				return func(c *event.Ctx) { srv.handleText(c, &ts, data, r) }
			}
			cases := []struct {
				name string
				run  func(c *event.Ctx)
				want float64
			}{
				{"GET hit", binary(BuildGet([]byte("small"), 1)), 0},
				{"GET miss", binary(BuildGet([]byte("absent"), 2)), 0},
				{"GETQ miss", binary(BuildGetQ([]byte("absent"), 3)), 0},
				{"DELETE miss", binary(BuildDelete([]byte("absent"), 4)), 0},
				{"text get hit", text("get small\r\n"), 0},
				{"SET over a resident key", binary(BuildSet([]byte("small"), value, 0, 5)), setAllocs[name]},
			}
			protoHarness(t, func(c *event.Ctx) {
				for _, tc := range cases {
					got := testing.AllocsPerRun(100, func() {
						tc.run(c)
						if out := r.Take(); out != nil {
							out.Free()
						}
					})
					if got != tc.want {
						t.Errorf("%s allocated %.2f objects, want %.0f", tc.name, got, tc.want)
					} else {
						t.Logf("%s: %.0f objects", tc.name, got)
					}
				}
			})
			if e, ok := srv.Store.Get("small"); !ok || !bytes.Equal(e.Value, value) {
				t.Fatal("the resident entry did not survive its overwrites")
			}
		})
	}
}

// Stored keys own their bytes: every storing op, through either protocol
// and into any store, leaves a key the connection's reused buffers cannot
// reach. Each request is delivered from a buffer scribbled over as soon as
// the delivery returns (a text command line apart from its data block),
// and the text session's key buffer is rewritten by each storage command
// after it; the keys all have one length, so a key that still viewed
// either would read as another key or as the scribble.
func TestStoredKeysOwnTheirBytes(t *testing.T) {
	textOps := []string{
		"set k-set 0 0 1\r\nA\r\n",
		"set k-set 0 0 1\r\nB\r\n", // over a resident key
		"add k-add 0 0 1\r\nC\r\n",
		"replace k-set 0 0 1\r\nD\r\n",
		"append k-set 0 0 1\r\nE\r\n",
		"prepend k-add 0 0 1\r\nF\r\n",
		"set k-num 0 0 1\r\n5\r\n",
		"incr k-num 1\r\n",
		"decr k-num 2\r\n",
		"touch k-add 100\r\n",
		"add k-new 0 0 1\r\nG\r\n",
	}
	binaryOps := [][]byte{
		BuildSet([]byte("k-set"), []byte("A"), 0, 1),
		BuildSet([]byte("k-set"), []byte("B"), 0, 2),
		Request{Opcode: OpAdd, Key: []byte("k-add"), Value: []byte("C")}.Build(3),
		Request{Opcode: OpAppend, Key: []byte("k-set"), Value: []byte("E")}.Build(4),
		Request{Opcode: OpPrepend, Key: []byte("k-add"), Value: []byte("F")}.Build(5),
		BuildCounter([]byte("k-num"), 1, 5, 0, true, 6), // creates the counter
		BuildCounter([]byte("k-num"), 1, 0, 0, true, 7),
		BuildCounter([]byte("k-num"), 2, 0, 0, false, 8),
		BuildTouch([]byte("k-add"), 100, 9),
		Request{Opcode: OpAdd, Key: []byte("k-new"), Value: []byte("G")}.Build(10),
	}
	want := []string{"k-add", "k-new", "k-num", "k-set"}
	for name, mk := range allStores() {
		for proto, ops := range map[string][][]byte{"text": textRequests(textOps), "binary": binaryOps} {
			t.Run(name+"/"+proto, func(t *testing.T) {
				srv := NewServer(mk(), 1)
				sc, fc := &serverConn{srv: srv}, &fakeConn{}
				protoHarness(t, func(c *event.Ctx) {
					for _, op := range ops {
						req := bytes.Clone(op)
						sc.onData(c, fc, iobuf.Wrap(req))
						clear(req)
					}
				})
				if got := slices.Sorted(slices.Values(srv.Store.Keys())); !slices.Equal(got, want) {
					t.Fatalf("store holds %q once the request buffers were rewritten, want %q", got, want)
				}
				for _, k := range want {
					if _, ok := srv.Store.Get(k); !ok {
						t.Errorf("%q is listed but not found", k)
					}
				}
				if e, _ := srv.Store.Get("k-num"); e == nil || string(e.Value) != "4" {
					t.Errorf("counter holds %v, want 4", e)
				}
				if bytes.Contains(fc.out, []byte("ERROR")) {
					t.Errorf("a request was refused: %q", fc.out)
				}
			})
		}
	}
}

// textRequests delivers each command line apart from its data block, so
// a storage command's key must outlive the delivery that carried it.
func textRequests(cmds []string) [][]byte {
	var out [][]byte
	for _, cmd := range cmds {
		line, block, _ := strings.Cut(cmd, "\r\n")
		out = append(out, []byte(line+"\r\n"))
		if block != "" {
			out = append(out, []byte(block))
		}
	}
	return out
}

// strayKey names a key the server holds that no op of the script named,
// "" if there is none: what a key left viewing a rewritten request buffer
// would turn into.
func strayKey(s *Server, named map[string]bool) string {
	for _, k := range s.Store.Keys() {
		if !named[k] {
			return fmt.Sprintf("%q", k)
		}
	}
	return ""
}
