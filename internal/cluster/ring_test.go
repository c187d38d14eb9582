package cluster

import (
	"fmt"
	"slices"
	"testing"

	"ebbrt/internal/sim"
)

// sampleKeys generates a deterministic key population for ring tests.
func sampleKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d-%d", i, i*2654435761))
	}
	return keys
}

func TestRingDeterministicPlacement(t *testing.T) {
	// Two independently built rings over the same backend set must route
	// every key identically - placement is a pure function of the set.
	build := func() *Ring {
		r := NewRing(0)
		for b := 0; b < 5; b++ {
			r.Add(b)
		}
		return r
	}
	a, b := build(), build()
	for _, key := range sampleKeys(5000) {
		if a.Lookup(key) != b.Lookup(key) {
			t.Fatalf("rings disagree on %q: %d vs %d", key, a.Lookup(key), b.Lookup(key))
		}
	}
}

func TestRingAdditionOrderIrrelevant(t *testing.T) {
	fwd, rev := NewRing(0), NewRing(0)
	for b := 0; b < 4; b++ {
		fwd.Add(b)
	}
	for b := 3; b >= 0; b-- {
		rev.Add(b)
	}
	for _, key := range sampleKeys(2000) {
		if fwd.Lookup(key) != rev.Lookup(key) {
			t.Fatalf("insertion order changed placement of %q", key)
		}
	}
}

func TestRingDistributionBalanced(t *testing.T) {
	const backends = 4
	r := NewRing(0)
	for b := 0; b < backends; b++ {
		r.Add(b)
	}
	counts := make([]int, backends)
	keys := sampleKeys(20000)
	for _, key := range keys {
		counts[r.Lookup(key)]++
	}
	ideal := len(keys) / backends
	for b, n := range counts {
		if n < ideal/2 || n > 2*ideal {
			t.Errorf("backend %d owns %d of %d keys (ideal %d) - ring badly unbalanced: %v",
				b, n, len(keys), ideal, counts)
		}
	}
}

func TestRingMigrationBounded(t *testing.T) {
	// Adding one backend to an n-backend ring must move only keys the new
	// backend now owns - about 1/(n+1) of the keyspace, and far less than
	// the wholesale reshuffle of modulo hashing.
	for _, n := range []int{1, 2, 4, 8} {
		r := NewRing(0)
		for b := 0; b < n; b++ {
			r.Add(b)
		}
		keys := sampleKeys(20000)
		before := make([]int, len(keys))
		for i, key := range keys {
			before[i] = r.Lookup(key)
		}
		r.Add(n)
		moved := 0
		for i, key := range keys {
			after := r.Lookup(key)
			if after != before[i] {
				if after != n {
					t.Fatalf("n=%d: key %q moved between old backends (%d -> %d)", n, key, before[i], after)
				}
				moved++
			}
		}
		ideal := float64(len(keys)) / float64(n+1)
		if float64(moved) > 2*ideal {
			t.Errorf("n=%d: %d keys moved, more than 2x the ideal %.0f", n, moved, ideal)
		}
		if moved == 0 {
			t.Errorf("n=%d: new backend received no keys", n)
		}
	}
}

func TestRingRemoveRedistributes(t *testing.T) {
	r := NewRing(0)
	for b := 0; b < 3; b++ {
		r.Add(b)
	}
	keys := sampleKeys(5000)
	before := make([]int, len(keys))
	for i, key := range keys {
		before[i] = r.Lookup(key)
	}
	r.Remove(1)
	if r.Size() != 2*r.vnodes {
		t.Fatalf("ring size %d after removal, want %d", r.Size(), 2*r.vnodes)
	}
	for i, key := range keys {
		after := r.Lookup(key)
		if after == 1 {
			t.Fatalf("key %q still routes to removed backend", key)
		}
		if before[i] != 1 && after != before[i] {
			t.Fatalf("key %q on surviving backend %d moved to %d", key, before[i], after)
		}
	}
}

func TestRingLookupNDistinctAndOrdered(t *testing.T) {
	const backends = 5
	r := NewRing(0)
	for b := 0; b < backends; b++ {
		r.Add(b)
	}
	for _, key := range sampleKeys(2000) {
		for n := 1; n <= backends; n++ {
			reps := r.LookupN(key, n)
			if len(reps) != n {
				t.Fatalf("LookupN(%q, %d) returned %d backends", key, n, len(reps))
			}
			seen := map[int]bool{}
			for _, b := range reps {
				if b < 0 || b >= backends {
					t.Fatalf("LookupN returned unknown backend %d", b)
				}
				if seen[b] {
					t.Fatalf("LookupN(%q, %d) repeated backend %d: %v", key, n, b, reps)
				}
				seen[b] = true
			}
			// The primary is what Lookup returns, and each shorter set is
			// a prefix of the longer one (successor order is stable).
			if reps[0] != r.Lookup(key) {
				t.Fatalf("LookupN primary %d != Lookup %d", reps[0], r.Lookup(key))
			}
			if n > 1 {
				prev := r.LookupN(key, n-1)
				for i := range prev {
					if prev[i] != reps[i] {
						t.Fatalf("LookupN(%d) not a prefix of LookupN(%d): %v vs %v", n-1, n, prev, reps)
					}
				}
			}
		}
		// Asking beyond the membership returns everyone, once.
		all := r.LookupN(key, backends+3)
		if len(all) != backends {
			t.Fatalf("LookupN beyond membership returned %d backends", len(all))
		}
	}
}

func TestRingLookupNMinimalChangeOnAdd(t *testing.T) {
	// Adding a backend may only insert itself into a key's replica set
	// (pushing the tail out); it must never reorder the surviving
	// members. Formally: the new set with the newcomer filtered out is a
	// prefix of the old set.
	const replicas = 3
	for _, n := range []int{replicas, 4, 8} {
		r := NewRing(0)
		for b := 0; b < n; b++ {
			r.Add(b)
		}
		keys := sampleKeys(5000)
		before := make([][]int, len(keys))
		for i, key := range keys {
			before[i] = r.LookupN(key, replicas)
		}
		r.Add(n)
		changed := 0
		for i, key := range keys {
			after := r.LookupN(key, replicas)
			var survivors []int
			for _, b := range after {
				if b != n {
					survivors = append(survivors, b)
				}
			}
			if len(survivors) != len(after) {
				changed++
			}
			for j, b := range survivors {
				if before[i][j] != b {
					t.Fatalf("n=%d key %q: add reordered survivors: before %v after %v",
						n, key, before[i], after)
				}
			}
		}
		// The newcomer lands in roughly replicas/(n+1) of the sets; a
		// wholesale reshuffle would put it in nearly all of them.
		ideal := float64(len(keys)) * float64(replicas) / float64(n+1)
		if float64(changed) > 2*ideal {
			t.Errorf("n=%d: newcomer entered %d replica sets, more than 2x ideal %.0f", n, changed, ideal)
		}
		if changed == 0 {
			t.Errorf("n=%d: newcomer entered no replica sets", n)
		}
	}
}

func TestRingLookupNRemoveRedistributesToSuccessors(t *testing.T) {
	// Removing a backend must (a) leave each key's surviving replicas in
	// order, extended by fresh successors at the tail, and (b) hand each
	// of the dead backend's primaries to the key's old second replica -
	// which is the property replication relies on: the new primary
	// already holds the key.
	const backends, replicas = 5, 3
	const dead = 2
	r := NewRing(0)
	for b := 0; b < backends; b++ {
		r.Add(b)
	}
	keys := sampleKeys(5000)
	before := make([][]int, len(keys))
	for i, key := range keys {
		before[i] = r.LookupN(key, replicas)
	}
	r.Remove(dead)
	promoted := 0
	for i, key := range keys {
		after := r.LookupN(key, replicas)
		var survivors []int
		for _, b := range before[i] {
			if b != dead {
				survivors = append(survivors, b)
			}
		}
		for j, b := range survivors {
			if after[j] != b {
				t.Fatalf("key %q: remove disturbed survivors: before %v after %v", key, before[i], after)
			}
		}
		if before[i][0] == dead {
			promoted++
			if after[0] != before[i][1] {
				t.Fatalf("key %q: primary did not pass to old second replica: before %v after %v",
					key, before[i], after)
			}
		}
	}
	if promoted == 0 {
		t.Fatal("dead backend was primary for no keys - test vacuous")
	}
}

func TestRingMembers(t *testing.T) {
	r := NewRing(0)
	if got := r.Members(); len(got) != 0 {
		t.Fatalf("empty ring has members %v", got)
	}
	for _, b := range []int{3, 0, 7} {
		r.Add(b)
	}
	want := []int{0, 3, 7}
	got := r.Members()
	if len(got) != len(want) {
		t.Fatalf("members %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("members %v, want %v", got, want)
		}
	}
	r.Remove(3)
	if got := r.Members(); len(got) != 2 || got[0] != 0 || got[1] != 7 {
		t.Fatalf("members after remove %v", got)
	}
}

func TestRingEmptyLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("lookup on empty ring did not panic")
		}
	}()
	NewRing(0).Lookup([]byte("k"))
}

// TestRingAppendOwnersMatchesOwnersAt: appendOwners, the one lookup behind
// OwnersAt, LookupN and the read path's record, gives OwnersAt's replica
// set - checked against a linear scan of the points - after whatever dst
// already holds, over random hashes and ring shapes, and allocates
// nothing when dst has room.
func TestRingAppendOwnersMatchesOwnersAt(t *testing.T) {
	rng := sim.NewRng(7)
	scan := func(r *Ring, h uint64, n int) []int {
		first := 0
		for first < len(r.points) && r.points[first].hash < h {
			first++
		}
		var out []int
		for j := range r.points {
			if b := r.points[(first+j)%len(r.points)].backend; len(out) < n && !slices.Contains(out, b) {
				out = append(out, b)
			}
		}
		return out
	}
	for shape := 0; shape < 20; shape++ {
		r := NewRing(1 + rng.Intn(16))
		backends := 1 + rng.Intn(8)
		for b := 0; b < backends; b++ {
			r.Add(b * 3)
		}
		dst := make([]int, 0, 32)
		for i := 0; i < 500; i++ {
			h, n := rng.Uint64(), rng.Intn(backends+2)
			want := r.OwnersAt(h, n)
			if ref := scan(r, h, n); !slices.Equal(want, ref) {
				t.Fatalf("OwnersAt(%#x, %d) = %v, the points give %v", h, n, want, ref)
			}
			prefix := want[:len(want)/2]
			dst = r.appendOwners(append(dst[:0], prefix...), h, n)
			if !slices.Equal(dst[:len(prefix)], prefix) || !slices.Equal(dst[len(prefix):], want) {
				t.Fatalf("appendOwners(%v, %#x, %d) = %v, want %v after the prefix", prefix, h, n, dst, want)
			}
		}
		h := rng.Uint64()
		if allocs := testing.AllocsPerRun(100, func() { dst = r.appendOwners(dst[:0], h, backends) }); allocs != 0 {
			t.Fatalf("appendOwners into a slice with room allocated %.0f objects", allocs)
		}
	}
}
