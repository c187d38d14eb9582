package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRngDeterminism(t *testing.T) {
	a, b := NewRng(42), NewRng(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRng(43)
	same := 0
	a = NewRng(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestRngFloat64Range(t *testing.T) {
	r := NewRng(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRngIntnRange(t *testing.T) {
	prop := func(seed uint64, n uint8) bool {
		nn := int(n%100) + 1
		r := NewRng(seed)
		for i := 0; i < 100; i++ {
			v := r.Intn(nn)
			if v < 0 || v >= nn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRngIntRange(t *testing.T) {
	r := NewRng(7)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(20, 70)
		if v < 20 || v > 70 {
			t.Fatalf("IntRange = %d out of [20,70]", v)
		}
	}
}

func TestRngExpMean(t *testing.T) {
	r := NewRng(9)
	const mean = 50.0
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(mean)
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Fatalf("Exp mean = %v, want ~%v", got, mean)
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := NewRng(11)
	z := NewZipf(r, 1.1, 1000)
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("Zipf value %d out of range", v)
		}
		counts[v]++
	}
	// Rank 0 must be the most popular and dramatically more popular than
	// the median rank for a skewed distribution.
	if counts[0] < counts[500]*10 {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[500]=%d", counts[0], counts[500])
	}
}

func TestZipfInvalidParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(s=1) did not panic")
		}
	}()
	NewZipf(NewRng(1), 1.0, 10)
}
