package jsvm

import (
	"math"
	"sync"
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

// ebbrtSuite is one run of the suite under EbbRT, shared by the tests
// below so the package runs the suite three times, not four.
var ebbrtSuite = sync.OnceValue(func() []Score { return RunSuite(EbbRTEnv()) })

func TestSuiteDeterministic(t *testing.T) {
	a := ebbrtSuite()
	b := RunSuite(EbbRTEnv())
	for i := range a {
		if a[i].Elapsed != b[i].Elapsed {
			t.Fatalf("%s nondeterministic: %v vs %v", a[i].Name, a[i].Elapsed, b[i].Elapsed)
		}
	}
}

func TestSuiteShapeMatchesPaper(t *testing.T) {
	ebb := ebbrtSuite()
	lin := RunSuite(LinuxEnv())
	if len(ebb) != 8 {
		t.Fatalf("suite has %d benchmarks", len(ebb))
	}
	product := 1.0
	var splayGain float64
	for i := range ebb {
		gain := float64(lin[i].Elapsed)/float64(ebb[i].Elapsed) - 1
		t.Logf("%-14s EbbRT=%8.1fms Linux=%8.1fms gain=%5.2f%%  [%s]",
			ebb[i].Name, float64(ebb[i].Elapsed)/1e6, float64(lin[i].Elapsed)/1e6, gain*100, lin[i].Stats)
		if gain <= 0 {
			t.Errorf("%s: EbbRT does not win (gain %.2f%%)", ebb[i].Name, gain*100)
		}
		product *= 1 + gain
		if ebb[i].Name == "Splay" {
			splayGain = gain
		}
	}
	overall := math.Pow(product, 1.0/8) - 1
	t.Logf("overall geometric-mean gain: %.2f%% (paper: 4.09%%)", overall*100)
	if overall < 0.01 || overall > 0.12 {
		t.Errorf("overall gain %.2f%% outside plausible band around the paper's 4.09%%", overall*100)
	}
	if splayGain < 0.06 {
		t.Errorf("Splay gain %.2f%% too small; paper reports the largest gain there (13.9%%)", splayGain*100)
	}
	// Splay must be the biggest winner.
	for i := range ebb {
		gain := float64(lin[i].Elapsed)/float64(ebb[i].Elapsed) - 1
		if ebb[i].Name != "Splay" && gain > splayGain {
			t.Errorf("%s gain %.2f%% exceeds Splay's %.2f%%", ebb[i].Name, gain*100, splayGain*100)
		}
	}
}
