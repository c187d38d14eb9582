package experiments

import (
	"testing"

	"ebbrt/internal/sim"
	"ebbrt/internal/testbed"
)

func TestTable1Shape(t *testing.T) {
	rows := Table1(2_000_000)
	byName := map[string]float64{}
	for _, r := range rows {
		if r.Cycles <= 0 {
			t.Fatalf("%s: non-positive cycles", r.Method)
		}
		byName[r.Method] = r.Cycles
	}
	// Shape requirements (`ebbrt list` quotes the paper's numbers):
	// inlined dispatch is clearly cheapest; Ebb dispatch costs a small
	// constant over a plain call - competitive with virtual dispatch in
	// Go (the C++ system gets it under a non-inlined call; Go's bounds
	// checks put it at virtual-call cost) - and the hosted hash-table
	// path is a multiple of the native path.
	if byName["Inline"] >= byName["No Inline"] {
		t.Errorf("Inline (%v) should beat No Inline (%v)", byName["Inline"], byName["No Inline"])
	}
	if byName["Inline"] >= byName["Inline Ebb"] {
		t.Errorf("Inline (%v) should beat Inline Ebb (%v)", byName["Inline"], byName["Inline Ebb"])
	}
	if byName["Inline Ebb"] > 1.6*byName["Virtual"] {
		t.Errorf("Inline Ebb (%v) should be competitive with Virtual (%v)", byName["Inline Ebb"], byName["Virtual"])
	}
	if byName["Hosted Ebb"] < 2*byName["Inline Ebb"] {
		t.Errorf("Hosted Ebb (%v) should be a multiple of Inline Ebb (%v)", byName["Hosted Ebb"], byName["Inline Ebb"])
	}
	t.Logf("\n%s", FormatTable1(rows))
}

func TestFigure3Shape(t *testing.T) {
	rows := Figure3([]int{1, 2, 4, 8, 12, 24}, 0)
	if len(rows) != 6 {
		t.Fatal("wrong row count")
	}
	one, twentyFour := rows[0], rows[5]
	// EbbRT scales linearly: flat per-core latency.
	if twentyFour.Cycles["EbbRT"] != one.Cycles["EbbRT"] {
		t.Errorf("EbbRT latency changed with cores: %v -> %v",
			one.Cycles["EbbRT"], twentyFour.Cycles["EbbRT"])
	}
	// jemalloc linear but slower than EbbRT (paper: 42% slower).
	ratio := twentyFour.Cycles["jemalloc"] / twentyFour.Cycles["EbbRT"]
	if ratio < 1.2 || ratio > 1.7 {
		t.Errorf("jemalloc/EbbRT ratio %.2f, paper reports ~1.42", ratio)
	}
	// glibc degrades toward the paper's 3.8x at 24 cores.
	deg := twentyFour.Cycles["glibc"] / twentyFour.Cycles["EbbRT"]
	if deg < 3.0 || deg > 5.0 {
		t.Errorf("glibc/EbbRT at 24 cores = %.2f, paper reports 3.8", deg)
	}
	// Monotone degradation for glibc.
	for i := 1; i < len(rows); i++ {
		if rows[i].Cycles["glibc"] < rows[i-1].Cycles["glibc"] {
			t.Errorf("glibc latency not monotone in cores: %+v", rows)
		}
	}
	t.Logf("\n%s", FormatFigure3(rows))
}

func TestFigure4Shape(t *testing.T) {
	series, err := Figure4([]int{64, 65536}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatal("want 2 systems")
	}
	ebb, lin := series[0], series[1]
	if ebb.Points[0].OneWay >= lin.Points[0].OneWay {
		t.Error("EbbRT should win 64B latency")
	}
	if ebb.Points[1].GoodputMbps <= lin.Points[1].GoodputMbps {
		t.Error("EbbRT should win 64kB goodput")
	}
	t.Logf("\n%s", FormatFigure4(series))
}

func TestMemcachedSLAOrdering(t *testing.T) {
	rates := []float64{50000, 100000, 150000}
	opt := MemcachedOptions{Cores: 1, Duration: 60 * sim.Millisecond}
	ebb := MemcachedCurve(testbed.EbbRT, rates, opt)
	lin := MemcachedCurve(testbed.LinuxVM, rates, opt)
	sla := 500 * sim.Microsecond
	ebbSLA := SLAThroughput(ebb.Points, sla)
	linSLA := SLAThroughput(lin.Points, sla)
	if ebbSLA <= linSLA {
		t.Errorf("EbbRT SLA throughput %.0f should beat Linux VM %.0f", ebbSLA, linSLA)
	}
	t.Logf("SLA@500us: EbbRT=%.0f LinuxVM=%.0f\n%s", ebbSLA, linSLA,
		FormatMemcached([]MemcachedSeries{ebb, lin}))
}

func TestFigure7Shape(t *testing.T) {
	rows := Figure7()
	if len(rows) != 9 { // 8 benchmarks + overall
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.EbbRTScore <= 1.0 {
			t.Errorf("%s: EbbRT score %.4f does not beat Linux", r.Name, r.EbbRTScore)
		}
	}
	overall := rows[len(rows)-1]
	if overall.Name != "Overall" {
		t.Fatal("missing overall row")
	}
	if overall.EbbRTScore < 1.01 || overall.EbbRTScore > 1.12 {
		t.Errorf("overall %.4f outside band around paper's 1.0409", overall.EbbRTScore)
	}
	t.Logf("\n%s", FormatFigure7(rows))
}

func TestTable2Shape(t *testing.T) {
	rows := Table2(6000)
	if len(rows) != 2 {
		t.Fatal("want 2 rows")
	}
	ebb, lin := rows[0], rows[1]
	if ebb.Result.Mean >= lin.Result.Mean {
		t.Error("EbbRT mean should beat Linux")
	}
	if ebb.Result.P99 >= lin.Result.P99 {
		t.Error("EbbRT p99 should beat Linux")
	}
	t.Logf("\n%s", FormatTable2(rows))
}

func TestAblationPollingHelpsUnderLoad(t *testing.T) {
	rates := []float64{150000}
	on := MemcachedCurve(testbed.EbbRT, rates, MemcachedOptions{Cores: 1, Duration: 60 * sim.Millisecond})
	off := MemcachedCurve(testbed.EbbRT, rates, MemcachedOptions{Cores: 1, Duration: 60 * sim.Millisecond, DisablePolling: true})
	// Both must complete; detailed comparison is recorded by the harness.
	if on.Points[0].Samples == 0 || off.Points[0].Samples == 0 {
		t.Fatal("ablation produced no samples")
	}
	t.Logf("polling on : %v", on.Points[0])
	t.Logf("polling off: %v", off.Points[0])
}

func TestAblationLockedStore(t *testing.T) {
	rates := []float64{400000}
	rcu := MemcachedCurve(testbed.EbbRT, rates, MemcachedOptions{Cores: 4, Store: "rcu", Duration: 50 * sim.Millisecond})
	locked := MemcachedCurve(testbed.EbbRT, rates, MemcachedOptions{Cores: 4, Store: "locked", Duration: 50 * sim.Millisecond})
	if rcu.Points[0].Mean >= locked.Points[0].Mean {
		t.Errorf("RCU store mean %v should beat locked store %v under 4-core load",
			rcu.Points[0].Mean, locked.Points[0].Mean)
	}
	t.Logf("rcu: %v | locked: %v", rcu.Points[0], locked.Points[0])
}
