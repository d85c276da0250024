package workload

import (
	"runtime"
	"testing"
	"time"

	"sprite/internal/metrics"
	"sprite/internal/sim"
	"sprite/internal/trace"
)

// bgloadRun executes the background-load plane under the given kernel and
// returns everything observable: the committed-order digest, the rendered
// metrics snapshot, and the collector's state.
func bgloadRun(t *testing.T, workers int) (uint64, string, int, map[int]uint64) {
	t.Helper()
	s := sim.New(7)
	s.SetLookahead(500 * time.Microsecond)
	if workers > 0 {
		s.ConfigureParallel(workers)
	}
	reg := metrics.New()
	if workers > 0 {
		reg.EnableSharding(workers)
	}
	b := StartBgLoad(s, reg, BgLoadConfig{
		Hosts:       12,
		Tick:        2 * time.Millisecond,
		WorkPerTick: 200,
		ReportEvery: 5,
	})
	if err := s.Run(100 * time.Millisecond); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	digest := s.OrderDigest()
	snap := reg.Snapshot().Text()
	loads := make(map[int]uint64)
	for h := 0; h < 12; h++ {
		if v, ok := b.LastLoad(h); ok {
			loads[h] = v
		}
	}
	s.Stop()
	_ = s.Run(0)
	if n := s.LiveActivities(); n != 0 {
		t.Fatalf("workers=%d leaked %d activities", workers, n)
	}
	return digest, snap, b.Received(), loads
}

// TestBgLoadSerialParallelEquivalence proves the load plane — daemons,
// sharded instruments, mailbox reports, collector — is a pure function of
// the seed, independent of kernel and worker count.
func TestBgLoadSerialParallelEquivalence(t *testing.T) {
	wantDigest, wantSnap, wantN, wantLoads := bgloadRun(t, 0)
	if wantN == 0 {
		t.Fatal("collector received no reports; workload too short to test anything")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		digest, snap, n, loads := bgloadRun(t, workers)
		if digest != wantDigest {
			t.Errorf("workers=%d digest %#x, want %#x", workers, digest, wantDigest)
		}
		if snap != wantSnap {
			t.Errorf("workers=%d metrics snapshot diverged:\n got: %s\nwant: %s", workers, snap, wantSnap)
		}
		if n != wantN {
			t.Errorf("workers=%d received %d reports, want %d", workers, n, wantN)
		}
		for h, v := range wantLoads {
			if loads[h] != v {
				t.Errorf("workers=%d host %d load %#x, want %#x", workers, h, loads[h], v)
			}
		}
	}
}

// TestBgLoadMetricsCount checks the sharded counters land exactly: every
// daemon runs its full tick budget within the time limit, so the tick
// counter equals Hosts*Ticks regardless of which worker cells absorbed the
// increments.
func TestBgLoadMetricsCount(t *testing.T) {
	s := sim.New(3)
	s.SetLookahead(time.Millisecond)
	s.ConfigureParallel(4)
	reg := metrics.New()
	reg.EnableSharding(4)
	StartBgLoad(s, reg, BgLoadConfig{Hosts: 8, Tick: time.Millisecond, WorkPerTick: 50, Ticks: 25})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("bgload.ticks").Value(); got != 8*25 {
		t.Fatalf("bgload.ticks = %d, want %d", got, 8*25)
	}
	if got := reg.Timing("bgload.tick_gap").N(); got != 8*25 {
		t.Fatalf("bgload.tick_gap n = %d, want %d", got, 8*25)
	}
}

// TestBgLoadUntracedReportsFormatNothing: emitting a report's trace event
// costs no allocation, with or without a sink; only a sink that renders
// formats anything. The same bounded plane runs untraced and into a sink
// that keeps nothing; the traced run must allocate no more objects than the
// untraced one. Each side counts its least of three runs: the process-wide
// counter now and then picks up a runtime allocation or two.
func TestBgLoadUntracedReportsFormatNothing(t *testing.T) {
	const hosts, ticks, every = 8, 25, 5
	run := func(sink func(trace.Event)) uint64 {
		s := sim.New(3)
		s.SetTraceSink(sink)
		StartBgLoad(s, nil, BgLoadConfig{Hosts: hosts, Tick: time.Millisecond, WorkPerTick: 50, Ticks: ticks, ReportEvery: every})
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	least := func(sink func(trace.Event)) uint64 {
		return min(run(sink), run(sink), run(sink))
	}
	reports := 0
	run(func(ev trace.Event) { // first-run costs (runtime caches, pools) land here
		if ev.Kind == trace.BgLoadReport {
			reports++
		}
	})
	if want := hosts * ticks / every; reports != want {
		t.Fatalf("sink saw %d reports, want %d", reports, want)
	}
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	untraced, traced := least(nil), least(func(trace.Event) {})
	t.Logf("%d reports: %d objects traced, %d untraced", reports, traced, untraced)
	if traced > untraced {
		t.Errorf("traced run allocated %d objects, untraced %d: emitting %d reports into a sink that keeps nothing allocated", traced, untraced, reports)
	}
}
