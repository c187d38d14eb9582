package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// The benchmark owns its inputs: nothing here calls the repository's
// generators (sim.Rng, sim.Zipf, load.NewWorkload), so the offered
// traffic stays fixed when those change.

// rng is splitmix64: small, seedable, and ours.
type rng struct{ s uint64 }

func newRng(seed, stream uint64) *rng {
	r := &rng{s: seed*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in (0, 1).
func (r *rng) float() float64 { return (float64(r.next()>>11) + 0.5) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// exp returns an exponential variate with the given mean.
func (r *rng) exp(mean float64) float64 { return -mean * math.Log(r.float()) }

// descLen is the self-describing header every value starts with:
// key index, version, total length, check word (all big-endian u32).
const descLen = 16

const descMagic = 0xebb17a1e

// population is one workload's key set, value generator and checker.
//
// Value lengths are a function of (key rank, version) only - an
// exponential's quantile at a low-discrepancy point - so every seed
// offers the same size mix and a hot key's successive versions sweep
// the distribution evenly instead of sampling it. The seed decides the
// key bytes, the value bytes, which keys are asked for and when.
type population struct {
	keys      [][]byte
	tape      []byte // seeded pattern every value body is a window of
	valueMin  int    // at least descLen
	valueMean float64
	valueMax  int
	issued    []uint32  // newest version handed out per key
	zipfCDF   []float64 // cumulative Zipf(1.05) popularity by key rank
	pick      *rng
}

const (
	keyMin   = 20
	keyMax   = 70
	zipfSkew = 1.05
	tapeSlop = 256
)

func newPopulation(seed uint64, sp *spec) *population {
	nKeys, valueMax := sp.keys, sp.valueMax
	r := newRng(seed, 1)
	p := &population{
		keys:      make([][]byte, nKeys),
		tape:      make([]byte, valueMax+tapeSlop),
		valueMin:  max(sp.valueMin, descLen),
		valueMean: sp.valueMean,
		valueMax:  valueMax,
		issued:    make([]uint32, nKeys),
		zipfCDF:   make([]float64, nKeys),
		pick:      newRng(seed, 2),
	}
	for i := range p.keys {
		klen := keyMin + r.intn(keyMax-keyMin+1)
		key := make([]byte, klen)
		n := copy(key, fmt.Sprintf("k%07d:", i))
		for j := n; j < klen; j++ {
			key[j] = byte('a' + r.intn(26))
		}
		p.keys[i] = key
	}
	for i := 0; i < len(p.tape); i += 8 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], r.next())
		copy(p.tape[i:], w[:])
	}
	sum := 0.0
	for i := range p.zipfCDF {
		sum += 1 / math.Pow(float64(i+1), zipfSkew)
		p.zipfCDF[i] = sum
	}
	for i := range p.zipfCDF {
		p.zipfCDF[i] /= sum
	}
	return p
}

// nextKey samples a key rank from the Zipf popularity.
func (p *population) nextKey() int {
	i := sort.SearchFloat64s(p.zipfCDF, p.pick.float())
	if i >= len(p.keys) {
		i = len(p.keys) - 1
	}
	return i
}

func frac(x float64) float64 { return x - math.Floor(x) }

// valueLen is the length of version v of key k: the floor plus an
// exponential of the configured mean, capped.
func (p *population) valueLen(k int, v uint32) int {
	u := frac(float64(k+1)*0.6180339887498949 + float64(v)*0.7548776662466927)
	n := p.valueMin + int(-p.valueMean*math.Log(1-u*0.999999))
	if n > p.valueMax {
		n = p.valueMax
	}
	return n
}

func mix(k int, v uint32) uint32 {
	x := uint64(k)<<32 | uint64(v)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return uint32(x >> 32)
}

// fill writes version v of key k into dst, which must be valueLen(k, v)
// bytes long.
func (p *population) fill(dst []byte, k int, v uint32) {
	h := mix(k, v)
	binary.BigEndian.PutUint32(dst[0:], uint32(k))
	binary.BigEndian.PutUint32(dst[4:], v)
	binary.BigEndian.PutUint32(dst[8:], uint32(len(dst)))
	binary.BigEndian.PutUint32(dst[12:], descMagic^h)
	off := int(h % tapeSlop)
	copy(dst[descLen:], p.tape[off:])
}

// value builds version v of key k in a fresh slice.
func (p *population) value(k int, v uint32) []byte {
	b := make([]byte, p.valueLen(k, v))
	p.fill(b, k, v)
	return b
}

// newVersion hands out the next version number of key k.
func (p *population) newVersion(k int) uint32 {
	p.issued[k]++
	return p.issued[k]
}

// check verifies that val is, byte for byte, some version of key k the
// benchmark has written (or is writing).
func (p *population) check(k int, val []byte) error {
	if len(val) < descLen {
		return fmt.Errorf("value of %d bytes has no descriptor", len(val))
	}
	gotK := int(binary.BigEndian.Uint32(val[0:]))
	v := binary.BigEndian.Uint32(val[4:])
	n := int(binary.BigEndian.Uint32(val[8:]))
	word := binary.BigEndian.Uint32(val[12:])
	if gotK != k {
		return fmt.Errorf("value belongs to key %d, asked for key %d", gotK, k)
	}
	if v > p.issued[k] {
		return fmt.Errorf("version %d of key %d was never written (newest %d)", v, k, p.issued[k])
	}
	if n != len(val) || n != p.valueLen(k, v) {
		return fmt.Errorf("key %d version %d: length %d, descriptor says %d, written as %d", k, v, len(val), n, p.valueLen(k, v))
	}
	h := mix(k, v)
	if word != descMagic^h {
		return fmt.Errorf("key %d version %d: bad check word", k, v)
	}
	off := int(h % tapeSlop)
	if !bytes.Equal(val[descLen:], p.tape[off:off+n-descLen]) {
		return fmt.Errorf("key %d version %d: body differs from what was written", k, v)
	}
	return nil
}
