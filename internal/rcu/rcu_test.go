package rcu

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestSynchronizeWaitsForReader(t *testing.T) {
	d := NewDomain()
	r := d.Register()
	r.Lock()
	done := make(chan struct{})
	entered := make(chan struct{})
	go func() {
		close(entered)
		d.Synchronize()
		close(done)
	}()
	<-entered
	select {
	case <-done:
		t.Fatal("Synchronize returned while reader inside critical section")
	default:
	}
	r.Unlock()
	<-done
}

// TestSynchronizeWaitsAcrossDomains: readers stamp themselves with the
// process-wide epoch hint, so a domain whose neighbor has synchronized
// many times must still wait for its own in-section readers. (The old
// domain-local grace-period comparison returned immediately here,
// reclaiming under a live reader.)
func TestSynchronizeWaitsAcrossDomains(t *testing.T) {
	busy := NewDomain()
	for i := 0; i < 100; i++ {
		busy.Synchronize()
	}
	d := NewDomain()
	r := d.Register()
	r.Lock()
	done := make(chan struct{})
	entered := make(chan struct{})
	go func() {
		close(entered)
		d.Synchronize()
		close(done)
	}()
	<-entered
	select {
	case <-done:
		t.Fatal("Synchronize returned while reader inside critical section")
	default:
	}
	r.Unlock()
	<-done
}

func TestSynchronizeIgnoresQuiescentReaders(t *testing.T) {
	d := NewDomain()
	d.Register() // never locks
	d.Synchronize()
}

func TestSynchronizeIgnoresNewReaders(t *testing.T) {
	d := NewDomain()
	r := d.Register()
	// Reader enters *after* the epoch bump: lock with fresh epoch while
	// Synchronize runs must not deadlock.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			r.Lock()
			r.Unlock()
		}
	}()
	for i := 0; i < 100; i++ {
		d.Synchronize()
	}
	wg.Wait()
}

func TestGracePeriodStress(t *testing.T) {
	d := NewDomain()
	var inCrit atomic.Int64
	var maxSeen atomic.Int64
	const readers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < readers; i++ {
		r := d.Register()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Lock()
				inCrit.Add(1)
				inCrit.Add(-1)
				r.Unlock()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		d.Synchronize()
		if v := inCrit.Load(); v > maxSeen.Load() {
			maxSeen.Store(v)
		}
	}
	close(stop)
	wg.Wait()
}

func TestTableBasics(t *testing.T) {
	tb := NewTable[string, int](StringHash, 4)
	if _, ok := tb.Get("missing"); ok {
		t.Fatal("found missing key")
	}
	tb.Put("a", 1)
	tb.Put("b", 2)
	if v, ok := tb.Get("a"); !ok || v != 1 {
		t.Fatalf("a = %d, %v", v, ok)
	}
	tb.Put("a", 10)
	if v, _ := tb.Get("a"); v != 10 {
		t.Fatalf("replace failed: %d", v)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if !tb.Delete("a") {
		t.Fatal("delete reported absent")
	}
	if tb.Delete("a") {
		t.Fatal("double delete reported present")
	}
	if _, ok := tb.Get("a"); ok {
		t.Fatal("deleted key still visible")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestTableResize(t *testing.T) {
	tb := NewTable[string, int](StringHash, 4)
	const n = 10000
	for i := 0; i < n; i++ {
		tb.Put(fmt.Sprintf("key%d", i), i)
	}
	if tb.Len() != n {
		t.Fatalf("Len = %d", tb.Len())
	}
	for i := 0; i < n; i++ {
		if v, ok := tb.Get(fmt.Sprintf("key%d", i)); !ok || v != i {
			t.Fatalf("key%d = %d, %v after resize", i, v, ok)
		}
	}
}

// The table borrows its keys: a string key that views a caller's buffer
// is copied once, when Put or PutIfAbsent inserts it, and a replacement
// keeps the resident copy. Lookups and replacements copy nothing, so
// rewriting the buffer afterwards leaves every stored key intact.
func TestTableOwnsInsertedKeys(t *testing.T) {
	tb := NewTable[string, int](StringHash, 4)
	buf := []byte("alpha")
	view := unsafe.String(unsafe.SliceData(buf), len(buf))
	tb.Put(view, 1)
	copy(buf, "gamma")
	tb.Put(view, 2) // inserts "gamma"
	copy(buf, "alpha")
	if got := testing.AllocsPerRun(100, func() { tb.Put(view, 3) }); got != 1 {
		t.Fatalf("a replacing Put allocated %.0f objects, want 1 (its node)", got)
	}
	if got := testing.AllocsPerRun(100, func() { tb.Get(view) }); got != 0 {
		t.Fatalf("a Get allocated %.0f objects, want 0", got)
	}
	copy(buf, "betas")
	if !tb.PutIfAbsent(view, 4) || tb.PutIfAbsent(view, 5) {
		t.Fatal("PutIfAbsent of a fresh key did not insert it once")
	}
	copy(buf, "zzzzz")
	got := map[string]int{}
	tb.ForEach(func(k string, v int) bool {
		got[k] = v
		return true
	})
	if want := map[string]int{"alpha": 3, "gamma": 2, "betas": 4}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("table holds %v after its callers' buffer was rewritten, want %v", got, want)
	}
}

func TestTableForEach(t *testing.T) {
	tb := NewTable[string, int](StringHash, 4)
	for i := 0; i < 10; i++ {
		tb.Put(fmt.Sprintf("k%d", i), i)
	}
	sum := 0
	tb.ForEach(func(k string, v int) bool {
		sum += v
		return true
	})
	if sum != 45 {
		t.Fatalf("sum = %d", sum)
	}
	visits := 0
	tb.ForEach(func(string, int) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatal("ForEach did not stop early")
	}
}

func TestTableConcurrentReadersWriters(t *testing.T) {
	tb := NewTable[uint64, uint64](Uint64Hash, 16)
	const keys = 512
	for i := uint64(0); i < keys; i++ {
		tb.Put(i, i*100)
	}
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	// Readers: values must always be either absent or self-consistent.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed uint64) {
			defer readers.Done()
			x := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				x = x*6364136223846793005 + 1
				k := x % keys
				if v, ok := tb.Get(k); ok && v != k*100 && v != k*100+1 {
					t.Errorf("key %d has torn value %d", k, v)
					return
				}
			}
		}(uint64(r + 1))
	}
	// Writers: flip values, delete and reinsert.
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed uint64) {
			defer writers.Done()
			x := seed
			for i := 0; i < 20000; i++ {
				x = x*6364136223846793005 + 1
				k := x % keys
				switch x % 3 {
				case 0:
					tb.Put(k, k*100)
				case 1:
					tb.Put(k, k*100+1)
				case 2:
					tb.Delete(k)
					tb.Put(k, k*100)
				}
			}
		}(uint64(w + 99))
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// Property: the table agrees with a plain map under any sequence of
// single-threaded operations.
func TestTableMatchesMapProperty(t *testing.T) {
	prop := func(ops []struct {
		K  uint8
		V  uint16
		Op uint8
	}) bool {
		tb := NewTable[uint64, uint16](Uint64Hash, 4)
		ref := map[uint64]uint16{}
		for _, o := range ops {
			k := uint64(o.K % 32)
			switch o.Op % 3 {
			case 0, 1:
				tb.Put(k, o.V)
				ref[k] = o.V
			case 2:
				got := tb.Delete(k)
				_, want := ref[k]
				if got != want {
					return false
				}
				delete(ref, k)
			}
		}
		if tb.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			if got, ok := tb.Get(k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHashes(t *testing.T) {
	if StringHash("a") == StringHash("b") {
		t.Fatal("trivial string hash collision")
	}
	if Uint64Hash(1) == Uint64Hash(2) {
		t.Fatal("trivial int hash collision")
	}
}
