package memcached

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"ebbrt/internal/event"
)

func stores() map[string]func() Store {
	return map[string]func() Store{
		"rcu":    func() Store { return NewRCUStore() },
		"locked": func() Store { return NewLockedStore() },
	}
}

// storeKeys collects the keys of a point-in-time snapshot, in Scan's
// order.
func storeKeys(s Store) []string {
	var keys []string
	s.Scan(func(key string, _ *Entry) bool {
		keys = append(keys, key)
		return true
	})
	return keys
}

// TestScanSnapshotIsolation: a Scan sees exactly the store as it was
// when the scan started - mutations made from inside the scan callback
// (or, equivalently, concurrently) affect neither the visited set nor
// the visited values, and a key deleted before the scan never appears.
func TestScanSnapshotIsolation(t *testing.T) {
	for name, mk := range stores() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			const n = 200
			for i := 0; i < n; i++ {
				s.Set(fmt.Sprintf("stable-%d", i), &Entry{Value: []byte("v")})
				s.Set(fmt.Sprintf("doomed-%d", i), &Entry{Value: []byte("d")})
			}
			for i := 0; i < n; i++ {
				s.Delete(fmt.Sprintf("doomed-%d", i))
			}

			seen := map[string]int{}
			i := 0
			s.Scan(func(key string, e *Entry) bool {
				seen[key]++
				// Mutate mid-scan: new inserts, and deletion of a key the
				// snapshot already contains.
				s.Set(fmt.Sprintf("mid-scan-%d", i), &Entry{Value: []byte("m")})
				s.Delete(fmt.Sprintf("stable-%d", (i+1)%n))
				i++
				return true
			})

			if len(seen) != n {
				t.Fatalf("scan yielded %d keys, want the %d-key snapshot", len(seen), n)
			}
			for k, c := range seen {
				if c != 1 {
					t.Errorf("key %q yielded %d times", k, c)
				}
				if len(k) < 7 || k[:7] != "stable-" {
					t.Errorf("scan yielded %q: deleted-before-scan or inserted-mid-scan key", k)
				}
			}
		})
	}
}

// TestScanStopsEarly: a false return ends the scan.
func TestScanStopsEarly(t *testing.T) {
	for name, mk := range stores() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			for i := 0; i < 50; i++ {
				s.Set(fmt.Sprintf("k-%d", i), &Entry{})
			}
			visited := 0
			s.Scan(func(string, *Entry) bool {
				visited++
				return visited < 10
			})
			if visited != 10 {
				t.Fatalf("visited %d entries after stopping at 10", visited)
			}
		})
	}
}

// TestKeysSnapshot: the keys a Scan visits match the store contents at
// the call.
func TestKeysSnapshot(t *testing.T) {
	for name, mk := range stores() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			want := map[string]bool{}
			for i := 0; i < 64; i++ {
				k := fmt.Sprintf("k-%d", i)
				s.Set(k, &Entry{})
				want[k] = true
			}
			s.Set("gone", &Entry{})
			s.Delete("gone")
			keys := storeKeys(s)
			if len(keys) != len(want) {
				t.Fatalf("Scan visited %d keys, want %d", len(keys), len(want))
			}
			for _, k := range keys {
				if !want[k] {
					t.Errorf("Scan visited unexpected %q", k)
				}
			}
		})
	}
}

// TestMapStoresIterateInKeyOrder: the map-backed stores visit Scan in
// sorted key order, so a flush's deletions and a migration
// stream's chunking never follow Go's randomised map iteration.
func TestMapStoresIterateInKeyOrder(t *testing.T) {
	for name, s := range map[string]Store{
		"locked":  NewLockedStore(),
		"bounded": NewBoundedStore(boundedTestBudget, EvictLRU, nil),
	} {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 300; i++ {
				s.Set(fmt.Sprintf("k-%d", (i*7919)%300), &Entry{Value: []byte("v")})
			}
			scanned := storeKeys(s)
			if len(scanned) != 300 || !slices.IsSorted(scanned) {
				t.Errorf("Scan: %d keys, sorted %v", len(scanned), slices.IsSorted(scanned))
			}
		})
	}
}

// TestScanUnderConcurrentMutation hammers the store from writer
// goroutines while scanning: the scan must never panic, must always
// yield every key written-and-never-deleted before it started, and must
// never yield a key deleted before it started. Run under -race in CI,
// this is also the store's concurrency-safety check for the migration
// path (a source streams its snapshot while serving writes).
func TestScanUnderConcurrentMutation(t *testing.T) {
	for name, mk := range stores() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			const stable = 300
			for i := 0; i < stable; i++ {
				s.Set(fmt.Sprintf("stable-%d", i), &Entry{Value: []byte("v")})
				s.Set(fmt.Sprintf("doomed-%d", i), &Entry{Value: []byte("d")})
			}
			for i := 0; i < stable; i++ {
				s.Delete(fmt.Sprintf("doomed-%d", i))
			}

			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; !stop.Load(); i++ {
						k := fmt.Sprintf("volatile-%d-%d", w, i%128)
						s.Set(k, &Entry{Value: []byte("x")})
						if i%3 == 0 {
							s.Delete(k)
						}
						if _, ok := s.Get(fmt.Sprintf("stable-%d", i%stable)); !ok {
							t.Errorf("stable key vanished under concurrent scan")
							return
						}
					}
				}()
			}

			for round := 0; round < 20; round++ {
				got := map[string]bool{}
				s.Scan(func(key string, e *Entry) bool {
					if len(key) >= 7 && key[:7] == "doomed-" {
						t.Fatalf("scan yielded %q, deleted before the scan", key)
					}
					got[key] = true
					return true
				})
				for i := 0; i < stable; i++ {
					if k := fmt.Sprintf("stable-%d", i); !got[k] {
						t.Fatalf("round %d: scan missed pre-existing key %q", round, k)
					}
				}
			}
			stop.Store(true)
			wg.Wait()
		})
	}
}

// TestAddIfAbsent: the server's ADD stores only when the key is absent
// and reports which happened, over every store: the stores have no add
// of their own, so ADD is a lookup and a Set, atomic because one event
// runs at a time.
func TestAddIfAbsent(t *testing.T) {
	for name, mk := range stores() {
		t.Run(name, func(t *testing.T) {
			protoHarness(t, func(c *event.Ctx) {
				srv := NewServer(mk(), 1)
				add := func(value string, opaque uint32) []byte {
					return storeRequest(OpAdd, []byte("k"), []byte(value), 0, 0).Build(opaque)
				}
				_, fc := feed(c, srv, add("old", 1), add("stale", 2),
					Request{Opcode: OpDelete, Key: []byte("k")}.Build(3), add("new", 4))
				hdrs, _ := parseResponses(t, fc.out)
				want := []uint16{StatusOK, StatusKeyExists, StatusOK, StatusOK}
				if len(hdrs) != len(want) {
					t.Fatalf("%d responses, want %d", len(hdrs), len(want))
				}
				for i, w := range want {
					if hdrs[i].Status != w {
						t.Errorf("response %d: status %#x, want %#x", i, hdrs[i].Status, w)
					}
				}
				if e, _ := srv.Store.Get("k"); srv.Store.Len() != 1 || string(e.Value) != "new" {
					t.Fatalf("store holds %d keys, k=%q; want k=new alone", srv.Store.Len(), e.Value)
				}
			})
		})
	}
}

// TestStoresCopyBorrowedEntries: Set borrows the caller's Entry,
// keeping a copy, so changing it after the call leaves the stored entry
// as it was; and a Set inside Scan's fn - which the bounded store writes
// into the entry its LRU item holds - does not change what a later visit
// of that key sees.
func TestStoresCopyBorrowedEntries(t *testing.T) {
	for name, mk := range allStores() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			e := &Entry{Value: []byte("v1"), Flags: 1, CAS: 7}
			s.Set("set", e)
			*e = Entry{Value: []byte("v2"), Flags: 2, CAS: 9}
			if got, ok := s.Get("set"); !ok || string(got.Value) != "v1" || got.Flags != 1 || got.CAS != 7 {
				t.Fatalf("the caller's later change reached the stored entry: %+v", got)
			}
			// Over a resident key too: the bounded store copies into the
			// item it already holds.
			s.Set("set", e)
			e.CAS = 11
			if got, _ := s.Get("set"); got.CAS != 9 {
				t.Fatalf("overwrite kept the caller's entry: CAS %d, want 9", got.CAS)
			}

			keys := []string{"k0", "k1", "k2", "k3"}
			for _, k := range keys {
				s.Set(k, &Entry{Value: []byte("old")})
			}
			first := true
			s.Scan(func(key string, e *Entry) bool {
				if key[0] != 'k' {
					return true
				}
				if string(e.Value) != "old" {
					t.Errorf("scan visited %s as %q, want the snapshot's %q", key, e.Value, "old")
				}
				if first {
					first = false
					for _, k := range keys {
						s.Set(k, &Entry{Value: []byte("new")})
					}
				}
				return true
			})
			for _, k := range keys {
				if got, _ := s.Get(k); string(got.Value) != "new" {
					t.Fatalf("%s holds %q after the scan, want %q", k, got.Value, "new")
				}
			}
		})
	}
}
