package metrics

import (
	"sync"
	"testing"
	"time"
)

// TestShardedCounterExact proves the sharded counter's merged value is
// exactly the serial count: the same increment stream, dealt round-robin
// across worker slots, folds back to the single-cell total (integer
// addition is commutative — no approximation anywhere).
func TestShardedCounterExact(t *testing.T) {
	const slots, n = 8, 10_000
	serial := New()
	sharded := New()
	sharded.EnableSharding(slots)
	sc := serial.Counter("m")
	pc := sharded.Counter("m")
	for i := 0; i < n; i++ {
		sc.Add(int64(i % 7))
		pc.AddSlot(1+i%slots, int64(i%7))
	}
	if sc.Value() != pc.Value() {
		t.Fatalf("sharded counter diverged: %d vs %d", pc.Value(), sc.Value())
	}
}

// TestShardedTimingExact proves the merged timing — count, sum, extrema,
// and every sketch-derived quantile — is byte-identical to a serial timing
// fed the same observations, for any round-robin split across slots. The
// comparison is on Snapshot.Text, the exact bytes the determinism goldens
// diff.
func TestShardedTimingExact(t *testing.T) {
	const n = 5_000
	durations := make([]time.Duration, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range durations {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		durations[i] = time.Duration(x%50_000_000) * time.Nanosecond
	}
	serial := New()
	st := serial.Timing("lat")
	for _, d := range durations {
		st.Observe(d)
	}
	want := serial.Snapshot().Text()
	for _, slots := range []int{1, 2, 4, 8} {
		sharded := New()
		sharded.EnableSharding(slots)
		pt := sharded.Timing("lat")
		for i, d := range durations {
			pt.ObserveSlot(1+i%slots, d)
		}
		if got := sharded.Snapshot().Text(); got != want {
			t.Fatalf("slots=%d snapshot diverged:\n got: %s\nwant: %s", slots, got, want)
		}
	}
}

// TestShardedSpanTiling checks the invariant the migration phases rely on:
// when per-phase durations tile a total (total = sum of phases), the
// sharded timings preserve it exactly — Sum over the phase timing equals
// Sum over the total timing even when phases land on different worker
// slots than their totals.
func TestShardedSpanTiling(t *testing.T) {
	const slots, migrations = 4, 500
	r := New()
	r.EnableSharding(slots)
	phases := []*Timing{r.Timing("phase.freeze"), r.Timing("phase.transfer"), r.Timing("phase.resume")}
	total := r.Timing("total")
	var wantTotal time.Duration
	for i := 0; i < migrations; i++ {
		var sum time.Duration
		for j, p := range phases {
			d := time.Duration((i*7+j*3)%977) * time.Microsecond
			p.ObserveSlot(1+(i+j)%slots, d)
			sum += d
		}
		total.ObserveSlot(1+i%slots, sum)
		wantTotal += sum
	}
	var phaseSum time.Duration
	for _, p := range phases {
		phaseSum += p.Sum()
	}
	if phaseSum != wantTotal || total.Sum() != wantTotal {
		t.Fatalf("phase tiling broken: phases=%v total=%v want=%v", phaseSum, total.Sum(), wantTotal)
	}
	if total.N() != migrations {
		t.Fatalf("total n=%d want %d", total.N(), migrations)
	}
}

// TestEnableShardingRetrofit proves instruments created before
// EnableSharding gain cells too, and that slot 0 / out-of-range slots fall
// through to the shared base cell rather than dropping observations.
func TestEnableShardingRetrofit(t *testing.T) {
	r := New()
	c := r.Counter("pre")
	tm := r.Timing("pre")
	c.Add(3)
	tm.Observe(time.Millisecond)
	r.EnableSharding(4)
	c.AddSlot(2, 5)   // sharded path
	c.AddSlot(0, 7)   // scheduler context: base cell
	c.AddSlot(99, 11) // out of range: base cell
	if got := c.Value(); got != 26 {
		t.Fatalf("retrofitted counter = %d, want 26", got)
	}
	tm.ObserveSlot(3, 2*time.Millisecond)
	tm.ObserveSlot(0, 3*time.Millisecond)
	if got := tm.N(); got != 3 {
		t.Fatalf("retrofitted timing n = %d, want 3", got)
	}
	if got := tm.Sum(); got != 6*time.Millisecond {
		t.Fatalf("retrofitted timing sum = %v, want 6ms", got)
	}
}

// TestShardedConcurrentWriters is the race-detector check of the sharded
// cells: slot-disjoint writers plus a concurrent snapshot reader.
func TestShardedConcurrentWriters(t *testing.T) {
	const slots, per = 8, 2_000
	r := New()
	r.EnableSharding(slots)
	c := r.Counter("hot")
	tm := r.Timing("hot")
	var wg sync.WaitGroup
	for s := 1; s <= slots; s++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.IncSlot(slot)
				tm.ObserveSlot(slot, time.Duration(i)*time.Microsecond)
			}
		}(s)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.Snapshot().Text()
		}
	}()
	wg.Wait()
	<-done
	if got := c.Value(); got != slots*per {
		t.Fatalf("lost updates: counter = %d, want %d", got, slots*per)
	}
	if got := tm.N(); got != slots*per {
		t.Fatalf("lost updates: timing n = %d, want %d", got, slots*per)
	}
}
