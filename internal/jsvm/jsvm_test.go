package jsvm

import (
	"testing"

	"ebbrt/internal/sim"
)

func TestGCCollectsGarbage(t *testing.T) {
	rt := New(EbbRTEnv())
	root := rt.NewObject(1)
	rt.AddRoot(root)
	// Allocate far past the GC trigger with everything unreachable.
	for i := 0; i < 200000; i++ {
		o := rt.NewObject(8)
		o.Slots[0] = Num(float64(i))
	}
	if rt.GCCount == 0 {
		t.Fatal("GC never ran")
	}
	// Garbage allocated after the last automatic collection is still
	// unswept; a final explicit collection must leave only the root.
	rt.gc()
	if rt.live > 1 {
		t.Fatalf("%d objects survive with only one root", rt.live)
	}
}

func TestGCPreservesReachable(t *testing.T) {
	rt := New(EbbRTEnv())
	root := rt.NewObject(100)
	rt.AddRoot(root)
	for i := 0; i < 100; i++ {
		o := rt.NewObject(2)
		o.Slots[0] = Num(float64(i))
		root.Slots[i] = Obj(o)
	}
	// Deep chain reachable through slot 0.
	cur := root.Slots[0].Obj
	for i := 0; i < 50; i++ {
		n := rt.NewObject(2)
		n.Slots[0] = Num(float64(i))
		cur.Slots[1] = Obj(n)
		cur = n
	}
	before := rt.live
	rt.gc()
	if rt.live != before {
		t.Fatalf("GC freed reachable objects: %d -> %d", before, rt.live)
	}
	// Values intact.
	for i := 0; i < 100; i++ {
		if root.Slots[i].Obj.Slots[0].Num != float64(i) {
			t.Fatal("object corrupted by GC")
		}
	}
}

func TestRemoveRootFreesSubgraph(t *testing.T) {
	rt := New(EbbRTEnv())
	a := rt.NewObject(1)
	rt.AddRoot(a)
	b := rt.NewObject(1)
	rt.AddRoot(b)
	rt.RemoveRoot(a)
	rt.gc()
	if rt.live != 1 {
		t.Fatalf("live = %d after removing one of two roots", rt.live)
	}
}

func TestLinuxEnvChargesFaultsAndTicks(t *testing.T) {
	run := func(env Env) (*Runtime, sim.Time) {
		rt := New(env)
		root := rt.NewObject(1)
		rt.AddRoot(root)
		for i := 0; i < 100000; i++ {
			rt.NewObject(16)
			rt.Work(100)
		}
		return rt, rt.Elapsed()
	}
	ebb, ebbTime := run(EbbRTEnv())
	lin, linTime := run(LinuxEnv())
	if ebb.Faults != 0 || ebb.Ticks != 0 {
		t.Fatalf("EbbRT env charged faults=%d ticks=%d", ebb.Faults, ebb.Ticks)
	}
	if lin.Faults == 0 || lin.Ticks == 0 {
		t.Fatalf("Linux env charged faults=%d ticks=%d", lin.Faults, lin.Ticks)
	}
	if linTime <= ebbTime {
		t.Fatalf("Linux %v should exceed EbbRT %v", linTime, ebbTime)
	}
}

func TestHighWaterFaultModel(t *testing.T) {
	rt := New(LinuxEnv())
	root := rt.NewObject(1)
	rt.AddRoot(root)
	// Churn garbage within a bounded working set: after the first trigger
	// the arena recycles, so faults must be far below total allocation.
	for i := 0; i < 500000; i++ {
		rt.NewObject(8)
	}
	totalPages := rt.totalAlloc / heapPageSize
	if rt.Faults*10 > totalPages {
		t.Fatalf("faults %d not bounded by working set (total pages %d)", rt.Faults, totalPages)
	}
}
