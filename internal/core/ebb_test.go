package core

import (
	"testing"
	"testing/quick"
)

type counter struct {
	core int
	n    int
}

func TestLazyRepresentativeConstruction(t *testing.T) {
	d := NewDomain(4, NativeTable)
	built := 0
	ref := Allocate(d, func(core int) *counter {
		built++
		return &counter{core: core}
	})
	if built != 0 {
		t.Fatal("representative built eagerly")
	}
	r0 := ref.Get(0)
	if built != 1 || r0.core != 0 {
		t.Fatalf("built=%d core=%d", built, r0.core)
	}
	// Second deref on the same core is the fast path: no construction.
	if ref.Get(0) != r0 {
		t.Fatal("fast path returned different rep")
	}
	if built != 1 {
		t.Fatal("fast path invoked miss handler")
	}
	// Other core builds its own rep.
	r2 := ref.Get(2)
	if built != 2 || r2.core != 2 || r2 == r0 {
		t.Fatalf("per-core reps wrong: built=%d", built)
	}
	if d.Installs() != 2 {
		t.Fatalf("Installs = %d", d.Installs())
	}
}

func TestHostedTableSemanticsMatchNative(t *testing.T) {
	for _, kind := range []TableKind{NativeTable, HostedTable} {
		d := NewDomain(2, kind)
		ref := Allocate(d, func(core int) *counter { return &counter{core: core} })
		a, b := ref.Get(0), ref.Get(1)
		if a.core != 0 || b.core != 1 {
			t.Fatalf("kind %v: wrong cores", kind)
		}
		if got, ok := ref.GetIfPresent(0); !ok || got != a {
			t.Fatalf("kind %v: GetIfPresent broken", kind)
		}
		if _, ok := ref.GetIfPresent(1); !ok {
			t.Fatalf("kind %v: rep missing", kind)
		}
	}
}

func TestGetIfPresentDoesNotFault(t *testing.T) {
	d := NewDomain(1, NativeTable)
	ref := Allocate(d, func(core int) *counter { return &counter{} })
	if _, ok := ref.GetIfPresent(0); ok {
		t.Fatal("GetIfPresent faulted in a rep")
	}
	if d.Installs() != 0 {
		t.Fatal("install happened")
	}
}

func TestSetRepOverridesMiss(t *testing.T) {
	d := NewDomain(2, NativeTable)
	ref := Allocate(d, func(core int) *counter {
		t.Fatal("miss handler ran despite explicit rep")
		return nil
	})
	explicit := &counter{n: 7}
	ref.SetRep(0, explicit)
	if ref.Get(0) != explicit {
		t.Fatal("explicit rep not returned")
	}
}

func TestDropReconstructs(t *testing.T) {
	d := NewDomain(1, NativeTable)
	built := 0
	ref := Allocate(d, func(core int) *counter {
		built++
		return &counter{}
	})
	first := ref.Get(0)
	d.Drop(0, ref.Id())
	second := ref.Get(0)
	if built != 2 || first == second {
		t.Fatalf("Drop did not force reconstruction: built=%d", built)
	}
}

func TestForEachRep(t *testing.T) {
	d := NewDomain(4, NativeTable)
	ref := Allocate(d, func(core int) *counter { return &counter{core: core, n: core * 10} })
	ref.Get(1)
	ref.Get(3)
	sum := 0
	visits := 0
	ref.ForEachRep(func(core int, rep *counter) {
		visits++
		sum += rep.n
	})
	if visits != 2 || sum != 40 {
		t.Fatalf("visits=%d sum=%d", visits, sum)
	}
}

func TestIdAllocationUnique(t *testing.T) {
	d := NewDomain(1, NativeTable)
	seen := map[Id]bool{}
	for i := 0; i < 1000; i++ {
		id := d.AllocateId()
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestAttachRemoteId(t *testing.T) {
	d := NewDomain(1, NativeTable)
	ref := Attach(d, 100, func(core int) *counter { return &counter{n: 1} })
	if ref.Id() != 100 {
		t.Fatalf("id = %d", ref.Id())
	}
	if ref.Get(0).n != 1 {
		t.Fatal("attached miss handler not used")
	}
	// Allocation must now skip past the attached id.
	if next := d.AllocateId(); next <= 100 {
		t.Fatalf("AllocateId returned %d, collides with attached id", next)
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	d := NewDomain(1, NativeTable)
	Attach(d, 50, func(int) *counter { return &counter{} })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attach did not panic")
		}
	}()
	Attach(d, 50, func(int) *counter { return &counter{} })
}

func TestUnregisteredDerefPanics(t *testing.T) {
	d := NewDomain(1, NativeTable)
	ref := Ref[counter]{reps: make([]*counter, 1), binding: &binding{id: 999, d: d}}
	defer func() {
		if recover() == nil {
			t.Fatal("deref of unknown id did not panic")
		}
	}()
	ref.Get(0)
}

func TestNilMissResultPanics(t *testing.T) {
	d := NewDomain(1, NativeTable)
	ref := Allocate(d, func(int) *counter { return nil })
	defer func() {
		if recover() == nil {
			t.Fatal("nil rep did not panic")
		}
	}()
	ref.Get(0)
}

// Property: for any sequence of (core, op) pairs, each core observes exactly
// one stable representative and constructions equal distinct cores touched.
func TestPerCoreRepStability(t *testing.T) {
	prop := func(ops []uint8) bool {
		const cores = 8
		d := NewDomain(cores, NativeTable)
		built := 0
		ref := Allocate(d, func(core int) *counter {
			built++
			return &counter{core: core}
		})
		first := map[int]*counter{}
		touched := map[int]bool{}
		for _, op := range ops {
			c := int(op) % cores
			rep := ref.Get(c)
			if rep.core != c {
				return false
			}
			if prev, ok := first[c]; ok && prev != rep {
				return false
			}
			first[c] = rep
			touched[c] = true
		}
		return built == len(touched)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
