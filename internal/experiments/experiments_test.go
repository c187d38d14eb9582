package experiments

import "testing"

// The paper's shapes. Each test reads the smoke run TestSpecs made of
// one Spec and requires that the run checked the shape's conditions and
// that all of them held; the conditions themselves live in the Spec.

// TestTable1Shape: inlined dispatch is cheapest; Ebb dispatch beats a
// call the compiler may not inline and stays under virtual dispatch; the
// hosted hash-table path is a multiple of the native one.
func TestTable1Shape(t *testing.T) {
	t.Parallel()
	requireHeld(t, "table1",
		"non-positive cycles",
		"should beat No Inline",
		"Inline Ebb (%.0f) should beat No Inline",
		"should beat Inline Ebb",
		"within 1.6x of Virtual",
		"at least 2x Inline Ebb")
}

// TestFigure3Shape: jemalloc flat at roughly 1.42x EbbRT, glibc
// degrading monotonically to roughly 3.8x EbbRT at 24 cores.
func TestFigure3Shape(t *testing.T) {
	t.Parallel()
	requireHeld(t, "figure3",
		"not monotone in cores",
		"jemalloc/EbbRT ratio",
		"glibc/EbbRT at 24 cores")
}

// TestFigure4Shape: EbbRT wins the 64 B one-way latency and the 64 kB
// goodput.
func TestFigure4Shape(t *testing.T) {
	t.Parallel()
	requireHeld(t, "figure4", "64B one-way latency", "64kB goodput")
}

// TestMemcachedSLAOrdering: EbbRT sustains more throughput within the
// 500 us p99 SLA than Linux in a VM.
func TestMemcachedSLAOrdering(t *testing.T) {
	t.Parallel()
	requireHeld(t, "figure5", "SLA throughput")
}

// TestFigure7Shape: eight benchmarks, EbbRT wins every one and overall,
// the overall score is a few percent, and Splay gains the most, by at
// least 6 %.
func TestFigure7Shape(t *testing.T) {
	t.Parallel()
	requireHeld(t, "figure7",
		"benchmarks, want 8",
		"does not beat Linux",
		"overall %.4f outside [1.01, 1.12]",
		"Splay score %.4f below 1.06",
		"exceeds Splay's")
}

// TestTable2Shape: EbbRT's webserver beats Linux's in mean and p99.
func TestTable2Shape(t *testing.T) {
	t.Parallel()
	requireHeld(t, "table2", "EbbRT mean", "EbbRT p99")
}

// TestAblationPollingHelpsUnderLoad: with and without adaptive polling,
// every load point completes requests.
func TestAblationPollingHelpsUnderLoad(t *testing.T) {
	t.Parallel()
	requireHeld(t, "figure5_nopolling", "recorded no samples")
}

// TestAblationLockedStore: under four-core load the RCU store's mean
// latency is below the single-lock store's.
func TestAblationLockedStore(t *testing.T) {
	t.Parallel()
	requireHeld(t, "figure6_locked", "RCU store's mean")
}
