// Package core implements the paper's primary contribution: Elastic
// Building Blocks (Ebbs, §2.2 and §3.3).
//
// An Ebb is a distributed, multi-core fragmented object. Invoking an Ebb
// dereferences its EbbId to a per-core representative; in the common case
// this is a table lookup plus one predictable conditional branch. When no
// representative exists on the invoking core, a type-specific miss handler
// constructs one on demand - short-lived Ebbs touched on one core never pay
// for representatives elsewhere.
//
// The native environment backs the translation table with a per-core array
// (standing in for the per-core virtual-memory region of the C++ system);
// the hosted environment, which lacks per-core virtual memory, uses
// per-core hash tables - measurably slower, reproduced in Table 1.
package core

import (
	"fmt"
)

// Id is a system-wide unique Ebb identifier (32 bits, paper §3.3). The
// namespace is shared across all machines of an application.
type Id uint32

// firstAllocatableId leaves room for well-known static ids.
const firstAllocatableId Id = 32

// TableKind selects the per-core representative lookup structure.
type TableKind int

const (
	// NativeTable is the array-backed fast path of the native library OS.
	NativeTable TableKind = iota
	// HostedTable is the hash-table path of the hosted user-space library.
	HostedTable
)

// Domain is one machine's view of the Ebb namespace: per-core translation
// tables plus the registered miss handlers. Ids are global; a Domain holds
// only the local representatives.
//
// Each Ref owns a typed per-core representative array (the analogue of the
// per-core virtual-memory region the C++ system derefs into), so the fast
// path is one load and one nil check, inlined at the call site. The hosted
// domain lacks that region: its array stays empty and every dereference
// goes through per-core hash tables - the slower path Table 1 quantifies.
type Domain struct {
	kind     TableKind
	cores    int
	hashes   []map[Id]any // [core] for HostedTable
	miss     map[Id]func(core int) any
	clear    map[Id]func(core int)
	nextId   Id
	installs uint64
}

// NewDomain creates a Domain for a machine with the given core count.
func NewDomain(cores int, kind TableKind) *Domain {
	d := &Domain{
		kind:   kind,
		cores:  cores,
		miss:   map[Id]func(int) any{},
		clear:  map[Id]func(int){},
		nextId: firstAllocatableId,
	}
	if kind == HostedTable {
		d.hashes = make([]map[Id]any, cores)
		for i := range d.hashes {
			d.hashes[i] = map[Id]any{}
		}
	}
	return d
}

// AllocateId reserves a fresh EbbId. In multi-node deployments the hosted
// frontend owns allocation and natives receive ids through the messenger;
// a single allocator per system keeps the namespace collision-free.
func (d *Domain) AllocateId() Id {
	id := d.nextId
	d.nextId++
	return id
}

// ReserveThrough advances the allocator past id, used when attaching to an
// id assigned by another node.
func (d *Domain) ReserveThrough(id Id) {
	if d.nextId <= id {
		d.nextId = id + 1
	}
}

// Installs reports how many representative constructions (miss-handler
// invocations) have occurred, a measure of the lazy-initialization the
// paper calls out.
func (d *Domain) Installs() uint64 { return d.installs }

// Drop removes the representative for id on one core (elasticity: reps can
// be released under memory pressure and reconstructed on demand).
func (d *Domain) Drop(core int, id Id) {
	if fn, ok := d.clear[id]; ok {
		fn(core)
	}
	if d.kind == HostedTable {
		delete(d.hashes[core], id)
	}
}

// Ref is the typed handle used to invoke an Ebb, the analogue of the C++
// EbbRef template. Copies are cheap; dereferencing is the fast path the
// paper measures in Table 1.
type Ref[T any] struct {
	reps []*T // per-core table, one slot per core; never filled in hosted domains
	*binding
}

// binding is what a Ref knows besides its table. It sits behind a pointer
// so that a Ref is four words, which the compiler keeps in registers: a
// loop calling Get copies nothing.
type binding struct {
	id Id
	d  *Domain
}

// Allocate creates a new Ebb in the domain with a per-core miss handler
// that constructs representatives on demand.
func Allocate[T any](d *Domain, miss func(core int) *T) Ref[T] {
	id := d.AllocateId()
	return Attach(d, id, miss)
}

// Attach binds an existing (possibly remotely allocated) id to a miss
// handler in this domain and returns the typed reference.
func Attach[T any](d *Domain, id Id, miss func(core int) *T) Ref[T] {
	if _, dup := d.miss[id]; dup {
		panic(fmt.Sprintf("core: duplicate miss handler for Ebb %d", id))
	}
	d.ReserveThrough(id)
	d.miss[id] = func(core int) any {
		rep := miss(core)
		if rep == nil {
			panic(fmt.Sprintf("core: miss handler for Ebb %d returned nil", id))
		}
		return rep
	}
	reps := make([]*T, d.cores)
	d.clear[id] = func(core int) { reps[core] = nil }
	return Ref[T]{reps: reps, binding: &binding{id: id, d: d}}
}

// Id returns the Ebb's system-wide id.
func (r Ref[T]) Id() Id { return r.id }

// Get dereferences the Ebb on the given core: the common case is a table
// load and one conditional branch; a miss invokes the type-specific fault
// handler, installs the new representative, and retries the fast path.
// Hosted domains always take the slower path. Get is inlined at its call
// sites: it costs 79 of the inliner's budget of 80, because every domain
// sizes reps to its cores, so the index's own bounds check stands in for
// a length test. CI fails if `go build -gcflags=-m` stops reporting the
// inlined call at Table 1's loopEbb and at the cluster client's rep, so a
// field or branch added here must pay for itself.
func (r Ref[T]) Get(core int) *T {
	if rep := r.reps[core]; rep != nil {
		return rep
	}
	return r.getSlow(core)
}

// getSlow handles hosted hash-table lookup and representative faulting.
//
//go:noinline
func (r Ref[T]) getSlow(core int) *T {
	if r.d.kind == HostedTable {
		if rep, ok := r.d.hashes[core][r.id]; ok {
			return rep.(*T)
		}
	}
	return r.fault(core)
}

// fault constructs and installs the representative.
func (r Ref[T]) fault(core int) *T {
	miss, ok := r.d.miss[r.id]
	if !ok {
		panic(fmt.Sprintf("core: Ebb %d dereferenced with no miss handler", r.id))
	}
	rep := miss(core).(*T)
	r.install(core, rep)
	return rep
}

func (r Ref[T]) install(core int, rep *T) {
	r.d.installs++
	if r.d.kind == NativeTable {
		r.reps[core] = rep
		return
	}
	r.d.hashes[core][r.id] = rep
}

// GetIfPresent returns the core's representative without faulting one in.
func (r Ref[T]) GetIfPresent(core int) (*T, bool) {
	if r.d.kind == NativeTable {
		rep := r.reps[core]
		return rep, rep != nil
	}
	rep, ok := r.d.hashes[core][r.id]
	if !ok {
		return nil, false
	}
	return rep.(*T), true
}

// SetRep installs a representative explicitly, used by Ebbs whose reps are
// created eagerly or by communication with other nodes.
func (r Ref[T]) SetRep(core int, rep *T) { r.install(core, rep) }

// ForEachRep visits every installed representative (for aggregation
// operations such as gathering per-core statistics).
func (r Ref[T]) ForEachRep(fn func(core int, rep *T)) {
	for c := 0; c < r.d.cores; c++ {
		if rep, ok := r.GetIfPresent(c); ok {
			fn(c, rep)
		}
	}
}
