package cluster

import "sort"

// Observers only the tests use. The system routes by the ring and learns
// the rest from the messages that reach it; what a test asks beyond that
// is answered here, beside the tests.

// Route returns the backend owning key's primary.
func (cl *Cluster) Route(key []byte) *Backend {
	return cl.Backends[cl.Ring.Lookup(key)]
}

// ReplicaSet returns the backends holding key, primary first. The set
// shrinks below R only when fewer than R backends remain on the ring.
func (cl *Cluster) ReplicaSet(key []byte) []int {
	return cl.Ring.LookupN(key, cl.Replicas)
}

// ReadSet returns the backends a read of key should try, in preference
// order (appendReadSet).
func (cl *Cluster) ReadSet(key []byte) []int {
	return cl.appendReadSet(nil, ringHash(key))
}

// Migrating reports whether a handoff window is open.
func (cl *Cluster) Migrating() bool { return cl.handoff != nil }

// Members returns the distinct backends currently on the ring, sorted.
func (r *Ring) Members() []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range r.points {
		if !seen[p.backend] {
			seen[p.backend] = true
			out = append(out, p.backend)
		}
	}
	sort.Ints(out)
	return out
}

func (hc *hotCache) len() int { return hc.n }

// keysMRU returns the cached keys in LRU order (most recent first) -
// determinism tests compare two runs' exact cache states.
func (hc *hotCache) keysMRU() []string {
	out := make([]string, 0, hc.n)
	for e := hc.head; e != nil; e = e.next {
		out = append(out, string(e.key))
	}
	return out
}
