package main

import "ebbrt/internal/sim"

// spec is one workload: its inputs, its topology, its offered load and
// its latency limit. Everything that decides how much simulated work a
// run does is here, fixed, so two commits measured with the same
// arguments do identical work.
type spec struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	// Inputs (keys are 20-70 bytes, popularity Zipf 1.05, as in ETC).
	keys      int
	valueMin  int     // floor, bytes (the 16-byte descriptor when unset)
	valueMean float64 // exponential mean above the floor, bytes
	valueMax  int     // cap, bytes
	getFrac   float64 // share of arrivals that read
	multiget  int     // keys per read arrival

	// Offered load. The measured window is windowPerSec of virtual time
	// for every second asked for with -seconds, sized so that it costs
	// about that much wall time at the commit that added the benchmark.
	rate         float64 // arrivals per second in the measured window
	windowPerSec sim.Time
	warm         sim.Time
	setups       int // set-ups timed per run; the median is setup_s

	// The rate ladder: ascending arrival rates, each run for ladderWarm +
	// ladderStep of virtual time, stopping at the first whose p99 exceeds
	// slo, whose completions fall short, or on which anything failed.
	ladder []float64
	slo    sim.Time

	// Topology: cluster is false for the two-machine pair.
	cluster     bool
	conns       int // pair: client connections
	pipeline    int // pair: requests in flight per connection
	replicas    int // cluster
	frontCores  int // cluster: cores of the hosted frontend
	bounded     bool
	budgetBytes uint64 // per backend, when bounded
}

const (
	nSlices     = 12 // wall-timed slices of the measured window
	ladderWarm  = 20 * sim.Millisecond
	ladderStep  = 100 * sim.Millisecond
	ladderMinOK = 0.98 // completions / arrivals a step must reach
	drainLimit  = 500 * sim.Millisecond
)

// opsPerArrival is the expected number of key operations per arrival.
func (s *spec) opsPerArrival() float64 {
	return s.getFrac*float64(max(s.multiget, 1)) + (1 - s.getFrac)
}

var specs = []*spec{
	{
		name: "mc1_etc",
		why:  "small ETC requests on one EbbRT core: per-event and per-packet cost carries the run, bytes barely matter (Figure 5)",
		keys: 20000, valueMean: 220, valueMax: 1024, getFrac: 0.9, multiget: 1,
		rate: 150e3, windowPerSec: 360 * sim.Millisecond, warm: 20 * sim.Millisecond, setups: 9,
		ladder: []float64{240e3, 315e3, 390e3, 435e3, 535e3, 730e3}, slo: 500 * sim.Microsecond,
		conns: 16, pipeline: 4,
	},
	{
		name: "mc1_bulk",
		why:  "32KiB values through the same server: the stack and buffers used by the byte, where copies live; mc1_etc should not move with them",
		keys: 512, valueMean: 32 << 10, valueMax: 64 << 10, getFrac: 0.9, multiget: 1,
		rate: 15e3, windowPerSec: 420 * sim.Millisecond, warm: 20 * sim.Millisecond, setups: 9,
		ladder: []float64{14e3, 18e3, 21e3, 24e3, 32e3, 42e3}, slo: 2 * sim.Millisecond,
		conns: 16, pipeline: 4,
	},
	{
		name: "cl_mget",
		why:  "multiget-8 reads through one hosted frontend over 4 replicated backends: ring, hot-key cache, batch queue and gpos carry it, few kernel events per op",
		keys: 6000, valueMean: 220, valueMax: 1024, getFrac: 0.95, multiget: 8,
		rate: 30e3, windowPerSec: 360 * sim.Millisecond, warm: 20 * sim.Millisecond, setups: 5,
		ladder: []float64{46e3, 60e3, 70e3, 78e3, 105e3, 140e3}, slo: 2 * sim.Millisecond,
		cluster: true, replicas: 2, frontCores: 1,
	},
	{
		name: "cl_write",
		why:  "half writes at 3 replicas over bounded LRU stores: quorum fan-out, invalidation, eviction; moves opposite to cl_mget when a change taxes one path for the other",
		keys: 20000, valueMin: 64, valueMean: 1024, valueMax: 3900, getFrac: 0.5, multiget: 1,
		rate: 40e3, windowPerSec: 400 * sim.Millisecond, warm: 20 * sim.Millisecond, setups: 5,
		ladder: []float64{62e3, 80e3, 100e3, 110e3, 140e3, 190e3}, slo: sim.Millisecond,
		cluster: true, replicas: 3, frontCores: 2, bounded: true, budgetBytes: 8 << 20,
	},
}

func findSpec(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}
