package sim

import (
	"math"
	"sort"
)

// Recorder accumulates latency samples (virtual nanoseconds) and computes
// the statistics the paper reports: mean and tail percentiles.
type Recorder struct {
	samples []int64
	sorted  bool
	sum     float64
}

// NewRecorder returns an empty recorder, optionally pre-sized.
func NewRecorder(capacityHint int) *Recorder {
	return &Recorder{samples: make([]int64, 0, capacityHint)}
}

// Add records one sample.
func (r *Recorder) Add(v Time) {
	r.samples = append(r.samples, int64(v))
	r.sum += float64(v)
	r.sorted = false
}

// Count reports the number of samples recorded.
func (r *Recorder) Count() int { return len(r.samples) }

// Mean reports the arithmetic mean, or 0 with no samples.
func (r *Recorder) Mean() Time {
	if len(r.samples) == 0 {
		return 0
	}
	return Time(r.sum / float64(len(r.samples)))
}

// Percentile reports the p-th percentile (p in [0,100]) using
// nearest-rank interpolation, or 0 with no samples.
func (r *Recorder) Percentile(p float64) Time {
	n := len(r.samples)
	if n == 0 {
		return 0
	}
	r.ensureSorted()
	if p <= 0 {
		return Time(r.samples[0])
	}
	if p >= 100 {
		return Time(r.samples[n-1])
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return Time(r.samples[lo])
	}
	frac := rank - float64(lo)
	return Time(float64(r.samples[lo])*(1-frac) + float64(r.samples[hi])*frac)
}

// Max reports the largest sample, or 0 with no samples.
func (r *Recorder) Max() Time {
	if len(r.samples) == 0 {
		return 0
	}
	r.ensureSorted()
	return Time(r.samples[len(r.samples)-1])
}

// Min reports the smallest sample, or 0 with no samples.
func (r *Recorder) Min() Time {
	if len(r.samples) == 0 {
		return 0
	}
	r.ensureSorted()
	return Time(r.samples[0])
}

// Reset discards all samples, retaining capacity.
func (r *Recorder) Reset() {
	r.samples = r.samples[:0]
	r.sum = 0
	r.sorted = false
}

func (r *Recorder) ensureSorted() {
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
}

// Counter is a labelled monotonic counter used for throughput accounting.
type Counter struct {
	Name string
	N    uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.N++ }

// AddN adds n to the counter.
func (c *Counter) AddN(n uint64) { c.N += n }
