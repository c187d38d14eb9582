package sim

import "math"

// Rng is a small, fast, deterministic random number generator
// (splitmix64-seeded xoshiro256**). Every workload generator takes an
// explicit *Rng so experiments are reproducible byte-for-byte.
type Rng struct {
	s [4]uint64
}

// NewRng returns a generator seeded from the given value via splitmix64,
// which guarantees a well-mixed non-zero state for any seed.
func NewRng(seed uint64) *Rng {
	r := &Rng{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rng) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rng) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// IntRange returns a uniform integer in [lo, hi] inclusive.
func (r *Rng) IntRange(lo, hi int) int {
	if hi < lo {
		panic("sim: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float in [0, 1).
func (r *Rng) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Exp returns an exponentially distributed value with the given mean,
// used for Poisson inter-arrival times in the open-loop load generators.
func (r *Rng) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Zipf samples from a Zipf-like distribution over [0, n) with skew s > 1
// using rejection-inversion (Hormann & Derflinger). The mutilate workload
// generator uses it for key popularity, mirroring the heavy-tailed access
// pattern of the Facebook ETC trace.
type Zipf struct {
	r           *Rng
	n           float64
	s           float64
	oneMinusS   float64
	hIntegralX1 float64
	hIntegralN  float64
	sDiv        float64
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s (s != 1, s > 0).
func NewZipf(r *Rng, s float64, n int) *Zipf {
	if n <= 0 || s <= 0 || s == 1 {
		panic("sim: invalid Zipf parameters")
	}
	z := &Zipf{r: r, n: float64(n), s: s, oneMinusS: 1 - s}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralN = z.hIntegral(z.n + 0.5)
	z.sDiv = 2 - z.hIntegralInv(z.hIntegral(2.5)-z.h(2))
	return z
}

func (z *Zipf) h(x float64) float64 { return math.Exp(-z.s * math.Log(x)) }

func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2(z.oneMinusS*logX) * logX
}

func (z *Zipf) hIntegralInv(x float64) float64 {
	t := x * z.oneMinusS
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1.0/3.0-0.25*x))
}

func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1.0/3.0)*(1+0.25*x))
}

// Next samples a value in [0, n).
func (z *Zipf) Next() int {
	for {
		u := z.hIntegralN + z.r.Float64()*(z.hIntegralX1-z.hIntegralN)
		x := z.hIntegralInv(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > z.n {
			k = z.n
		}
		if k-x <= z.sDiv || u >= z.hIntegral(k+0.5)-z.h(k) {
			return int(k) - 1
		}
	}
}
