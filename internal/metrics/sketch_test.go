package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// exactRank returns the sorted sample value at the same rank Quantile
// estimates: round(q*(n-1)).
func exactRank(sorted []float64, q float64) float64 {
	rank := int(math.Round(q * float64(len(sorted)-1)))
	return sorted[rank]
}

// withinAlpha reports whether got approximates want to the sketch's
// relative-error contract.
func withinAlpha(got, want float64) bool {
	return math.Abs(got-want) <= sketchAccuracy*math.Abs(want)+1e-12
}

func TestSketchBasics(t *testing.T) {
	s := newSketch()
	for i := 1; i <= 1000; i++ {
		s.add(float64(i))
	}
	if s.n != 1000 {
		t.Fatalf("n = %d", s.n)
	}
	if s.min != 1 || s.max != 1000 {
		t.Fatalf("min/max = %v/%v", s.min, s.max)
	}
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		want := exactRank(vals, q)
		if got := s.quantile(q); !withinAlpha(got, want) {
			t.Fatalf("Q(%v) = %v, want within %v%% of %v", q, got, sketchAccuracy*100, want)
		}
	}
}

func TestSketchEmptyAndZeros(t *testing.T) {
	s := newSketch()
	if s.quantile(0.5) != 0 || s.n != 0 {
		t.Fatal("empty sketch should summarize to zeros")
	}
	for i := 0; i < 10; i++ {
		s.add(0)
	}
	if got := s.quantile(0.5); got != 0 {
		t.Fatalf("all-zero sketch Q(0.5) = %v", got)
	}
	if len(s.pos)+len(s.neg) != 0 || s.zero != 10 {
		t.Fatalf("zeros landed in buckets: pos=%v neg=%v zero=%d", s.pos, s.neg, s.zero)
	}
}

func TestSketchNonFinite(t *testing.T) {
	s := newSketch()
	s.add(math.NaN()) // ignored
	s.add(math.Inf(1))
	s.add(math.Inf(-1))
	s.add(1)
	if s.n != 3 {
		t.Fatalf("n = %d (NaN must be ignored)", s.n)
	}
	if s.max != math.MaxFloat64 || s.min != -math.MaxFloat64 {
		t.Fatalf("min/max = %v/%v", s.min, s.max)
	}
}

// TestSketchQuantileWithinAlpha is the core accuracy property: for random
// inputs, every reported quantile is within sketchAccuracy (relative) of the exact
// sorted-sample value at the same rank.
func TestSketchQuantileWithinAlpha(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%512) + 1
		vals := make([]float64, count)
		s := newSketch()
		for i := range vals {
			// Span many decades, mixed signs and exact zeros — the domains
			// a duration/byte-count sketch must survive.
			v := (rng.Float64() - 0.3) * math.Pow(10, float64(rng.Intn(12)-4))
			if rng.Intn(20) == 0 {
				v = 0
			}
			vals[i] = v
			s.add(v)
		}
		sort.Float64s(vals)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
			if !withinAlpha(s.quantile(q), exactRank(vals, q)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSketchMergeMatchesWhole: splitting a sample across sketches and
// merging must stay within sketchAccuracy of the exact quantiles of the whole —
// the property that lets per-kernel sketches roll up into cluster ones.
func TestSketchMergeMatchesWhole(t *testing.T) {
	f := func(seed int64, n uint16, cut uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%512) + 2
		vals := make([]float64, count)
		for i := range vals {
			vals[i] = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(8)-2))
		}
		k := int(cut) % count
		a, b := newSketch(), newSketch()
		for _, v := range vals[:k] {
			a.add(v)
		}
		for _, v := range vals[k:] {
			b.add(v)
		}
		a.merge(b)
		if a.n != uint64(count) {
			return false
		}
		sort.Float64s(vals)
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			if !withinAlpha(a.quantile(q), exactRank(vals, q)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSketchQuantileMonotonic: quantiles never decrease in q.
func TestSketchQuantileMonotonic(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newSketch()
		for i := 0; i < int(n%256)+1; i++ {
			s.add((rng.Float64() - 0.5) * 1e6)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			cur := s.quantile(q)
			if cur < prev-1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
