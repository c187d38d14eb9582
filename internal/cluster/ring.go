package cluster

import (
	"encoding/binary"
	"slices"
	"sort"
)

// Ring is a consistent-hash ring over backend indices. Each backend
// contributes VNodes virtual points; a key is served by the backend
// owning the first point at or after the key's hash (wrapping). The
// placement is a pure function of the backend set, so every node of the
// deployment - and every rebuild of the same deployment - computes an
// identical routing table without coordination.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash
	epoch  uint64      // bumped on every membership change
}

type ringPoint struct {
	hash    uint64
	backend int
}

// DefaultVNodes balances shard evenness against lookup-table size; 128
// points per backend keeps the max/min key share within ~30% for the
// backend counts the scaling experiment sweeps.
const DefaultVNodes = 128

// NewRing creates an empty ring with the given virtual nodes per
// backend (0 selects DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes}
}

// ringHash is FNV-1a (stable across processes, unlike maphash) with a
// splitmix64-style finalizer. The finalizer matters: raw FNV-1a moves a
// key by less than one ring segment when only its trailing bytes change,
// which would pin whole families of sequentially-named keys ("key-1",
// "key-2", ...) to a single backend.
func ringHash(b []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer: full-avalanche bit mixing.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// vnodeHash positions one virtual point for (backend, replica).
func vnodeHash(backend, replica int) uint64 {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[0:8], uint64(backend))
	binary.BigEndian.PutUint64(buf[8:16], uint64(replica))
	return ringHash(buf[:])
}

// Add inserts a backend's virtual points. Adding backend b moves only
// the keys that land on b's new points - roughly a 1/(n+1) share -
// which is the consistent-hashing migration bound the tests assert.
func (r *Ring) Add(backend int) {
	r.epoch++
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: vnodeHash(backend, i), backend: backend})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].backend < r.points[j].backend
	})
}

// Remove deletes a backend's points; its keys redistribute to the ring
// successors.
func (r *Ring) Remove(backend int) {
	r.epoch++
	keep := r.points[:0]
	for _, p := range r.points {
		if p.backend != backend {
			keep = append(keep, p)
		}
	}
	r.points = keep
}

// Size reports the number of virtual points currently placed.
func (r *Ring) Size() int { return len(r.points) }

// Epoch reports the ring's membership version: every Add or Remove bumps
// it, so two placement decisions made at different epochs are known to
// have used (possibly) different rings. The migrator stamps each
// migration with the epoch whose diff it is streaming.
func (r *Ring) Epoch() uint64 { return r.epoch }

// Clone returns an independent copy of the ring. The migrator snapshots
// the ring before a membership change so the old-vs-new owner diff (and
// the dual-routing read path) can consult pre-change placement while the
// live ring already routes new traffic.
func (r *Ring) Clone() *Ring {
	return &Ring{
		vnodes: r.vnodes,
		points: append([]ringPoint(nil), r.points...),
		epoch:  r.epoch,
	}
}

// Lookup routes a key to a backend index. It panics on an empty ring -
// routing before any backend exists is a deployment bug, not a
// recoverable condition.
func (r *Ring) Lookup(key []byte) int {
	if len(r.points) == 0 {
		panic("cluster: lookup on empty ring")
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap
	}
	return r.points[i].backend
}

// LookupN returns the key's replica set: up to n distinct backends in
// ring-successor order, starting with the primary (what Lookup
// returns). When n exceeds the number of distinct backends on the ring,
// every backend is returned - the caller gets the whole membership in
// preference order. Like Lookup, an empty ring panics.
//
// Successor-order replica sets are what make failure handling cheap:
// removing a backend promotes each of its keys' next successors, which
// by construction already hold the keys' replicas.
func (r *Ring) LookupN(key []byte, n int) []int {
	return r.OwnersAt(ringHash(key), n)
}

// OwnersAt returns the replica set for a position in hash space: the
// owners of any key whose hash is h. LookupN is OwnersAt of the key's
// hash; the migration planner calls OwnersAt directly on segment
// boundaries to diff ownership between two rings without materializing
// keys.
func (r *Ring) OwnersAt(h uint64, n int) []int {
	return r.appendOwners(make([]int, 0, max(n, 0)), h, n)
}

// appendOwners appends the owners of hash h - up to n distinct backends
// in ring-successor order - to dst and returns the extended slice, so a
// caller with room in dst looks up a replica set without allocating. The
// backends it appends are distinct from each other, not from what dst
// already holds.
func (r *Ring) appendOwners(dst []int, h uint64, n int) []int {
	if len(r.points) == 0 {
		panic("cluster: lookup on empty ring")
	}
	start := len(dst)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for j := 0; j < len(r.points) && len(dst)-start < n; j++ {
		if b := r.points[(i+j)%len(r.points)].backend; !slices.Contains(dst[start:], b) {
			dst = append(dst, b)
		}
	}
	return dst
}
