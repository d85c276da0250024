package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"

	"sprite/internal/allocs"
)

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("x") != c {
		t.Fatal("Counter must return the same instance per name")
	}
	g := r.Gauge("q")
	g.Set(3)
	g.Set(7)
	g.Set(2)
	if g.Value() != 2 || g.Max() != 7 {
		t.Fatalf("gauge = %d max %d", g.Value(), g.Max())
	}
	g.Set(1)
	if g.Value() != 1 || g.Max() != 7 {
		t.Fatalf("gauge after Set = %d max %d", g.Value(), g.Max())
	}
}

func TestTimingSummary(t *testing.T) {
	r := New()
	tm := r.Timing("phase")
	for i := 1; i <= 100; i++ {
		tm.Observe(time.Duration(i) * time.Millisecond)
	}
	s := tm.summary()
	if s.N != 100 || s.Min != time.Millisecond || s.Max != 100*time.Millisecond {
		t.Fatalf("summary = %+v", s)
	}
	if s.Sum != 5050*time.Millisecond {
		t.Fatalf("sum = %v", s.Sum)
	}
	// Sketch quantiles carry a 1% relative bound around the value at rank
	// round(q*(n-1)) — for q=0.5 over 1..100ms that is the 51 ms element.
	if got, want := s.P50, 51*time.Millisecond; got < want*98/100 || got > want*102/100 {
		t.Fatalf("p50 = %v", got)
	}
}

func TestSnapshotDeterministicText(t *testing.T) {
	build := func() string {
		r := New()
		r.Counter("b.count").Add(2)
		r.Counter("a.count").Add(1)
		r.Gauge("depth").Set(3)
		r.Timing("t1").Observe(5 * time.Millisecond)
		r.Timing("t1").Observe(7 * time.Millisecond)
		return r.Snapshot().Text()
	}
	x, y := build(), build()
	if x != y {
		t.Fatalf("snapshot text not deterministic:\n%s\nvs\n%s", x, y)
	}
	if !strings.Contains(x, "counter a.count") || strings.Index(x, "a.count") > strings.Index(x, "b.count") {
		t.Fatalf("names not sorted:\n%s", x)
	}
}

// TestConcurrentCounters: instruments must be race-safe (the simulator is
// single-threaded, but the contract is atomic ops so future parallel
// drivers can share a registry).
func TestConcurrentCounters(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n").Inc()
				r.Gauge("g").Set(int64(j))
				r.Timing("t").Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if r.Counter("n").Value() != 8000 || r.Gauge("g").Max() != 999 || r.Timing("t").N() != 8000 {
		t.Fatalf("lost updates: n=%d g max=%d t=%d",
			r.Counter("n").Value(), r.Gauge("g").Max(), r.Timing("t").N())
	}
}

// TestNilRegistryDiscards pins the always-present contract: a nil registry
// hands every caller the same discard instruments, which take observations
// from concurrent goroutines and allocate nothing.
func TestNilRegistryDiscards(t *testing.T) {
	var r *Registry
	if r.Counter("a.b") != r.Counter("c.d") || r.Timing("a.b") != r.Timing("c.d") {
		t.Fatal("a nil registry must share one discard counter and one discard timing")
	}
	record := func(slot int) {
		r.Counter("a.b").Inc()
		r.Counter("a.b").AddSlot(slot, 3)
		r.Timing("a.b").ObserveSlot(slot, time.Duration(slot)*time.Millisecond)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				record(slot)
			}
		}(g)
	}
	wg.Wait()
	allocs.Check(t, "metrics.nil_registry.record", testing.AllocsPerRun(100, func() { record(1) }))
}

// TestSetGaugesPublishesTaggedFields checks the stats-struct publisher:
// each metric-tagged integer field becomes one gauge under the prefix, of
// any integer kind, and an untagged field stays unpublished.
func TestSetGaugesPublishesTaggedFields(t *testing.T) {
	r := New()
	r.SetGauges("area.", struct {
		Calls  uint64 `metric:"calls"`
		Depth  int    `metric:"max_depth"`
		Hidden uint64
	}{Calls: 7, Depth: 3, Hidden: 9})
	snap := r.Snapshot()
	if len(snap.Gauges) != 2 || snap.Gauges["area.calls"].Value != 7 || snap.Gauges["area.max_depth"].Value != 3 {
		t.Fatalf("gauges = %v, want area.calls 7 and area.max_depth 3 only", snap.Gauges)
	}
}
