// Package metrics is the cluster's observability plane: a registry of
// named counters, gauges, and duration timings that every layer (rpc, fs,
// core, sim, hostsel) feeds and one deterministic snapshot reports.
//
// Design constraints, in order:
//
//   - Cheap when ignored. A counter increment is one atomic add; nothing
//     allocates on the hot path once the counter pointer is cached. No
//     instrument ever touches simulated time, so installing the plane
//     cannot perturb golden outputs.
//   - Deterministic when read. Snapshot output is sorted by name and every
//     rendered value is a pure function of the recorded observations, so
//     two same-seed runs produce byte-identical snapshots.
//   - Exact under sharding. Each worker records into its own cells, and a
//     read folds them in slot order (Timing.fold): counts, sums, extrema
//     and sketch buckets (sketch.go) all commute, so the folded view is
//     what a serial run would report.
//   - Always present. A nil *Registry hands out shared discard
//     instruments, so code that records never checks whether a plane is
//     installed.
package metrics

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// counterCell is one worker's private counter slot, padded out to a cache
// line so neighbouring workers' increments never contend (the sigmaos
// stats.Tcounter "separate cache lines" idiom). The atomic is only for the
// snapshot reader; each cell has exactly one writer.
type counterCell struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing event count. When the registry has
// sharding enabled, AddSlot lets concurrently dispatched simulation workers
// increment private cache-line-padded cells that are summed only when the
// value is read, so the merged count is exactly what a serial run would
// have produced (integer addition is commutative) at none of the
// cross-core contention.
type Counter struct {
	v     atomic.Int64
	cells []counterCell
}

// shard equips the counter with private cells for slots 1..n. Called under
// the registry lock before the counter is shared with workers.
func (c *Counter) shard(n int) {
	if c.cells == nil {
		c.cells = make([]counterCell, n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be any sign; use Gauge for values meant to go down).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// AddSlot adds n through the worker slot's private cell (sim.WorkerSlot).
// Slot 0 — the serial kernel, shard 0, scheduler context — and any
// out-of-range slot fall through to the shared base cell.
func (c *Counter) AddSlot(slot int, n int64) {
	if slot <= 0 || slot > len(c.cells) {
		c.v.Add(n)
		return
	}
	c.cells[slot-1].v.Add(n)
}

// IncSlot adds one through the worker slot's private cell.
func (c *Counter) IncSlot(slot int) { c.AddSlot(slot, 1) }

// Value returns the current count: the base cell plus every worker cell,
// merged in slot order.
func (c *Counter) Value() int64 {
	v := c.v.Load()
	for i := range c.cells {
		v += c.cells[i].v.Load()
	}
	return v
}

// Gauge is an instantaneous level (queue depth, in-flight migrations).
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set replaces the level.
func (g *Gauge) Set(n int64) {
	g.v.Store(n)
	for {
		cur := g.max.Load()
		if n <= cur || g.max.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the high-water mark since creation.
func (g *Gauge) Max() int64 { return g.max.Load() }

// timingAcc is the accumulator state shared by a Timing's base cell and
// its per-worker cells.
type timingAcc struct {
	n        uint64
	sum      time.Duration
	min, max time.Duration
	sketch   *sketch
}

func (a *timingAcc) observe(d time.Duration) {
	if a.n == 0 || d < a.min {
		a.min = d
	}
	if a.n == 0 || d > a.max {
		a.max = d
	}
	a.n++
	a.sum += d
	a.sketch.add(d.Seconds())
}

// timingCell is one worker's private timing slot. Cells are separately
// allocated and padded so concurrent workers never share a cache line; the
// mutex is uncontended (one writer per cell) and exists for the snapshot
// reader.
type timingCell struct {
	mu sync.Mutex
	timingAcc
	_ [32]byte
}

// Timing accumulates duration observations: count, sum, min, max, and an
// online quantile sketch. With registry
// sharding enabled, ObserveSlot records into per-worker cells that are
// merged only when the timing is read. Counts, sums (integer nanoseconds),
// extrema, and sketch buckets are all commutative, so the merged view is
// bit-for-bit what a serial run observing the same durations would report,
// for any worker count.
type Timing struct {
	mu sync.Mutex
	timingAcc
	cells []*timingCell
}

func newTiming() *Timing {
	return &Timing{timingAcc: newTimingAcc()}
}

func newTimingAcc() timingAcc {
	return timingAcc{sketch: newSketch()}
}

// shard equips the timing with private cells for slots 1..n. Called under
// the registry lock before the timing is shared with workers.
func (t *Timing) shard(n int) {
	if t.cells != nil {
		return
	}
	t.cells = make([]*timingCell, n)
	for i := range t.cells {
		c := &timingCell{}
		c.timingAcc = newTimingAcc()
		t.cells[i] = c
	}
}

// Observe records one duration.
func (t *Timing) Observe(d time.Duration) {
	if t == &discardTiming {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.observe(d)
}

// ObserveSlot records one duration through the worker slot's private cell
// (sim.WorkerSlot). Slot 0 and out-of-range slots use the shared base cell.
func (t *Timing) ObserveSlot(slot int, d time.Duration) {
	if slot <= 0 || slot > len(t.cells) {
		t.Observe(d)
		return
	}
	c := t.cells[slot-1]
	c.mu.Lock()
	c.observe(d)
	c.mu.Unlock()
}

// fold merges the base cell and every worker cell (in slot order) into one
// view: scalar accumulators plus a freshly merged sketch that the caller
// owns. With no cells this is just a copy of the base state.
func (t *Timing) fold() (acc timingAcc, sk *sketch) {
	t.mu.Lock()
	acc = t.timingAcc
	sk = newSketch()
	sk.merge(acc.sketch)
	t.mu.Unlock()
	for _, c := range t.cells {
		c.mu.Lock()
		if c.n > 0 {
			if acc.n == 0 || c.min < acc.min {
				acc.min = c.min
			}
			if acc.n == 0 || c.max > acc.max {
				acc.max = c.max
			}
			acc.n += c.n
			acc.sum += c.sum
			sk.merge(c.sketch)
		}
		c.mu.Unlock()
	}
	return acc, sk
}

// N returns the number of observations.
func (t *Timing) N() uint64 {
	acc, _ := t.fold()
	return acc.n
}

// Sum returns the total of all observations.
func (t *Timing) Sum() time.Duration {
	acc, _ := t.fold()
	return acc.sum
}

// summary renders the timing's merged state.
func (t *Timing) summary() TimingSummary {
	acc, sk := t.fold()
	s := TimingSummary{N: acc.n, Sum: acc.sum, Min: acc.min, Max: acc.max}
	if acc.n > 0 {
		s.P50 = time.Duration(sk.quantile(0.50) * float64(time.Second))
		s.P95 = time.Duration(sk.quantile(0.95) * float64(time.Second))
		s.P99 = time.Duration(sk.quantile(0.99) * float64(time.Second))
	}
	return s
}

// TimingSummary is one timing's rendered state.
type TimingSummary struct {
	N             uint64        `json:"n"`
	Sum           time.Duration `json:"sum_ns"`
	Min           time.Duration `json:"min_ns"`
	Max           time.Duration `json:"max_ns"`
	P50, P95, P99 time.Duration `json:"-"`
}

// Registry holds named instruments. Get-or-create accessors are guarded by
// a mutex; hot paths should look an instrument up once and keep the pointer.
// A nil *Registry discards: Counter and Timing return the shared
// discardCounter and discardTiming, which nothing reads.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timings  map[string]*Timing
	slots    int
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timings:  make(map[string]*Timing),
	}
}

// EnableSharding equips every instrument — existing and future — with
// `slots` private per-worker cells, so AddSlot/IncSlot/ObserveSlot from
// concurrently dispatched simulation workers land on disjoint cache lines.
// Call it once, before the parallel kernel starts (cells must not appear
// while workers are mid-window). Gauges are not sharded: Set is
// last-writer-wins, which only the replayed serial order can decide, so
// gauge writes stay confined to the exclusive shard.
func (r *Registry) EnableSharding(slots int) {
	if slots <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.slots = slots
	for _, c := range r.counters {
		c.shard(slots)
	}
	for _, t := range r.timings {
		t.shard(slots)
	}
}

// discardCounter and discardTiming are a nil registry's instruments: every
// caller shares them, so asking for one allocates nothing. The counter's
// atomic adds are race-free; the timing drops each observation at once.
var (
	discardCounter Counter
	discardTiming  Timing
)

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &discardCounter
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		if r.slots > 0 {
			c.shard(r.slots)
		}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timing returns the named timing, creating it if needed.
func (r *Registry) Timing(name string) *Timing {
	if r == nil {
		return &discardTiming
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timings[name]
	if !ok {
		t = newTiming()
		if r.slots > 0 {
			t.shard(r.slots)
		}
		r.timings[name] = t
	}
	return t
}

// SetGauges publishes a stats struct: for each field tagged metric:"name"
// it sets the gauge prefix+name to the field's value. Untagged fields stay
// unpublished. stats must be a struct whose tagged fields are integers.
func (r *Registry) SetGauges(prefix string, stats any) {
	v := reflect.ValueOf(stats)
	for i := 0; i < v.NumField(); i++ {
		name, ok := v.Type().Field(i).Tag.Lookup("metric")
		if !ok {
			continue
		}
		var n int64
		if f := v.Field(i); f.CanInt() {
			n = f.Int()
		} else {
			n = int64(f.Uint())
		}
		r.Gauge(prefix + name).Set(n)
	}
}

// Snapshot captures every instrument's current state, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	snap := Snapshot{
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]GaugeValue, len(r.gauges)),
		Timings:  make(map[string]TimingSummary, len(r.timings)),
	}
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	timings := make(map[string]*Timing, len(r.timings))
	for k, v := range r.timings {
		timings[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		snap.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		snap.Gauges[k] = GaugeValue{Value: v.Value(), Max: v.Max()}
	}
	for k, v := range timings {
		snap.Timings[k] = v.summary()
	}
	return snap
}

// GaugeValue is one gauge's rendered state.
type GaugeValue struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// Snapshot is a point-in-time copy of a registry, safe to render or
// serialize after the run continues.
type Snapshot struct {
	Counters map[string]int64         `json:"counters"`
	Gauges   map[string]GaugeValue    `json:"gauges"`
	Timings  map[string]TimingSummary `json:"timings"`
}

// Text renders the snapshot as sorted "name value" lines — the format
// spritesim -metrics prints and the determinism goldens compare.
func (s Snapshot) Text() string {
	var b strings.Builder
	for _, name := range slices.Sorted(maps.Keys(s.Counters)) {
		fmt.Fprintf(&b, "counter %-40s %d\n", name, s.Counters[name])
	}
	for _, name := range slices.Sorted(maps.Keys(s.Gauges)) {
		g := s.Gauges[name]
		fmt.Fprintf(&b, "gauge   %-40s %d (max %d)\n", name, g.Value, g.Max)
	}
	for _, name := range slices.Sorted(maps.Keys(s.Timings)) {
		t := s.Timings[name]
		fmt.Fprintf(&b, "timing  %-40s n=%d sum=%v min=%v max=%v p50=%v p95=%v p99=%v\n",
			name, t.N, t.Sum, t.Min, t.Max, t.P50, t.P95, t.P99)
	}
	return b.String()
}
