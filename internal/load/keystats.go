package load

import "sort"

// Per-key frequency accounting. The ETC workload is Zipf-skewed by
// construction, but until now experiments could only infer the skew
// indirectly (from which shard saturated). Every generator now counts
// the measured window's per-key arrivals and exports the top of the
// distribution, so an experiment can report the hot-key share it
// actually offered.

// KeyFreq is one key's observed share of the measured op stream.
type KeyFreq struct {
	// KeyIdx indexes the workload's pre-generated key population.
	KeyIdx int
	// Count is the key's measured-window arrivals.
	Count uint64
	// Share is Count over the window's total arrivals.
	Share float64
}

// KeyStats is the per-key frequency summary of one measured run.
type KeyStats struct {
	// Total counts measured-window arrivals across all keys.
	Total uint64
	// TopK lists the most frequent keys, descending (ties broken by key
	// index, so the summary is deterministic).
	TopK []KeyFreq
	// TopShare is the summed share of TopK - the hot-key share a cache
	// of that many entries could absorb at best.
	TopShare float64
}

// DefaultStatsTopK is how many keys the generators summarize.
const DefaultStatsTopK = 10

// keyCounter tallies per-key arrivals inside the measured window.
type keyCounter struct {
	counts []uint64
	total  uint64
}

func newKeyCounter(keySpace int) *keyCounter {
	return &keyCounter{counts: make([]uint64, keySpace)}
}

func (kc *keyCounter) note(keyIdx int) {
	kc.counts[keyIdx]++
	kc.total++
}

// stats summarizes the top k keys by count.
func (kc *keyCounter) stats(k int) KeyStats {
	idx := make([]int, 0, len(kc.counts))
	for i, n := range kc.counts {
		if n > 0 {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		if kc.counts[idx[a]] != kc.counts[idx[b]] {
			return kc.counts[idx[a]] > kc.counts[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if len(idx) > k {
		idx = idx[:k]
	}
	out := KeyStats{Total: kc.total, TopK: make([]KeyFreq, len(idx))}
	for i, ki := range idx {
		f := KeyFreq{KeyIdx: ki, Count: kc.counts[ki]}
		if kc.total > 0 {
			f.Share = float64(f.Count) / float64(kc.total)
		}
		out.TopK[i] = f
		out.TopShare += f.Share
	}
	return out
}

// ShardLoad is one backend's measured completions - the per-backend
// breakdown of a sharded run's aggregate throughput.
type ShardLoad struct {
	// Shard indexes the run's shard list.
	Shard int
	// Completed counts measured-window completions served by the shard.
	Completed uint64
	// RPS is Completed over the measured duration.
	RPS float64
}
