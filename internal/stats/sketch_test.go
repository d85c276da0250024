package stats

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
func withinAlpha(got, want, alpha float64) bool {
	return math.Abs(got-want) <= alpha*math.Abs(want)+1e-12
}

func TestSketchBasics(t *testing.T) {
	s := NewSketch(0.01)
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i))
	}
	if s.N() != 1000 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Min() != 1 || s.Max() != 1000 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		want := exactRank(vals, q)
		if got := s.Quantile(q); !withinAlpha(got, want, s.Alpha()) {
			t.Fatalf("Q(%v) = %v, want within %v%% of %v", q, got, s.Alpha()*100, want)
		}
	}
}

func TestSketchEmptyAndZeros(t *testing.T) {
	s := NewSketch(0)
	if s.Quantile(0.5) != 0 || s.N() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sketch should summarize to zeros")
	}
	if s.Alpha() != DefaultSketchAccuracy {
		t.Fatalf("alpha = %v", s.Alpha())
	}
	for i := 0; i < 10; i++ {
		s.Add(0)
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("all-zero sketch Q(0.5) = %v", got)
	}
	if s.Buckets() != 1 {
		t.Fatalf("buckets = %d", s.Buckets())
	}
}

func TestSketchNonFinite(t *testing.T) {
	s := NewSketch(0.01)
	s.Add(math.NaN()) // ignored
	s.Add(math.Inf(1))
	s.Add(math.Inf(-1))
	s.Add(1)
	if s.N() != 3 {
		t.Fatalf("N = %d (NaN must be ignored)", s.N())
	}
	if s.Max() != math.MaxFloat64 || s.Min() != -math.MaxFloat64 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSketchMergeAlphaMismatch(t *testing.T) {
	a, b := NewSketch(0.01), NewSketch(0.05)
	b.Add(1)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging sketches with different alpha must fail")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("merging nil: %v", err)
	}
}

// TestSketchQuantileWithinAlpha is the core accuracy property: for random
// inputs, every reported quantile is within alpha (relative) of the exact
// sorted-sample value at the same rank.
func TestSketchQuantileWithinAlpha(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%512) + 1
		vals := make([]float64, count)
		s := NewSketch(0.01)
		for i := range vals {
			// Span many decades, mixed signs and exact zeros — the domains
			// a duration/byte-count sketch must survive.
			v := (rng.Float64() - 0.3) * math.Pow(10, float64(rng.Intn(12)-4))
			if rng.Intn(20) == 0 {
				v = 0
			}
			vals[i] = v
			s.Add(v)
		}
		sort.Float64s(vals)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
			if !withinAlpha(s.Quantile(q), exactRank(vals, q), s.Alpha()) {
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
// merging must stay within alpha of the exact quantiles of the whole —
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
		a, b := NewSketch(0.01), NewSketch(0.01)
		for _, v := range vals[:k] {
			a.Add(v)
		}
		for _, v := range vals[k:] {
			b.Add(v)
		}
		if err := a.Merge(b); err != nil {
			return false
		}
		if a.N() != uint64(count) {
			return false
		}
		sort.Float64s(vals)
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			if !withinAlpha(a.Quantile(q), exactRank(vals, q), a.Alpha()) {
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
		s := NewSketch(0.02)
		for i := 0; i < int(n%256)+1; i++ {
			s.Add((rng.Float64() - 0.5) * 1e6)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			cur := s.Quantile(q)
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
