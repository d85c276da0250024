package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the window barrier: the coordinator runs the first active
// worker's share itself, helper goroutines run the rest, and each Run joins
// its helpers before it returns. TestGoexitInActivityEndsRun covers a
// Goexit in either kind of share.

// liveHelpers counts the goroutines running a worker's helper loop. A
// joined helper may still be returning when Run does, so a nonzero count
// is read again after a few yields.
func liveHelpers() int {
	buf := make([]byte, 1<<16)
	n := 0
	for try := 0; try < 10; try++ {
		for {
			m := runtime.Stack(buf, true)
			if m < len(buf) {
				n = strings.Count(string(buf[:m]), ".(*worker).help(")
				break
			}
			buf = make([]byte, 2*len(buf))
		}
		if n == 0 {
			return 0
		}
		runtime.Gosched()
	}
	return n
}

// TestParkerOutlastsEarlyWake: a wake sent before the waiter's condition
// holds — a signaller delayed past the wait it was meant for — must not
// release the waiter; it parks again, and the wake that comes with the
// condition releases it.
func TestParkerOutlastsEarlyWake(t *testing.T) {
	k := parker{wake: make(chan struct{}, 1)}
	var ready atomic.Bool
	released := make(chan struct{})
	go func() {
		k.wait(ready.Load)
		close(released)
	}()
	for !k.parked.Load() {
		runtime.Gosched()
	}
	k.signal() // early: ready is still false
	for !k.parked.Load() {
		runtime.Gosched()
		select {
		case <-released:
			t.Fatal("an early wake released the waiter")
		default:
		}
	}
	ready.Store(true)
	k.signal()
	<-released
}

// TestWindowStats counts windows on a program small enough to trace by
// hand (lookahead 100µs):
//
//	X, Y (shard 0) commit exclusively at 0; X sleeps to 2000µs, Y to 1020µs
//	window 1 @0:    A, B, C (shards 1–3); closes at the horizon (100µs)
//	                and runs three events it creates: C @30µs, which spawns
//	                D and sleeps to 3000µs, D @30µs and D @40µs
//	window 2 @1000: A; closes at the exclusive Y @1020
//	Y commits exclusively
//	window 3 @1050: B; closes at the horizon (1150µs) before X @2000
//	X commits exclusively
//	window 4 @3000: C; closes on the empty queue
//
// Only window 1 spans two workers, and only when there are two. The
// windowed regime is pinned, window formation does not depend on the worker
// count, and the serial kernel counts nothing. No timer is cancelled, so the
// window, chain and exclusive counts add up to every committed event.
func TestWindowStats(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	run := func(workers int) (WindowStats, uint64, Stats) {
		s := New(1)
		s.SetLookahead(us(100))
		if workers > 0 {
			s.ConfigureParallel(workers)
			regimeCase{pin: regimeWindowed}.apply(s)
		}
		sleeper := func(d time.Duration) func(*Env) error {
			return func(env *Env) error { return env.Sleep(d) }
		}
		s.Spawn("X", sleeper(us(2000)))
		s.Spawn("Y", sleeper(us(1020)))
		s.SpawnOn(1, "A", sleeper(us(1000)))
		s.SpawnOn(2, "B", sleeper(us(1050)))
		s.SpawnOn(3, "C", func(env *Env) error {
			if err := env.Sleep(us(30)); err != nil {
				return err
			}
			env.Spawn("D", sleeper(us(10)))
			return env.Sleep(us(2970))
		})
		if err := s.Run(0); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return s.WindowStats(), s.OrderDigest(), s.Stats()
	}

	serial, wantDigest, wantStats := run(0)
	if serial != (WindowStats{}) {
		t.Fatalf("serial kernel counted windows: %+v", serial)
	}
	if wantStats.EventsDispatched != 13 {
		t.Fatalf("serial kernel committed %d events, want 13", wantStats.EventsDispatched)
	}
	formation := WindowStats{Windows: 4, WindowEvents: 6, ChainEvents: 3, ClosedHorizon: 2, ClosedExclusive: 1, ClosedEmpty: 1, ExclusiveCommits: 4}
	for _, tc := range []struct{ workers, single int }{{1, 4}, {2, 3}, {4, 3}} {
		got, digest, stats := run(tc.workers)
		if digest != wantDigest || stats != wantStats {
			t.Errorf("workers=%d diverged from serial: digest %#x stats %+v, want %#x %+v", tc.workers, digest, stats, wantDigest, wantStats)
		}
		if got.SingleWorker != uint64(tc.single) {
			t.Errorf("workers=%d: %d single-worker windows, want %d", tc.workers, got.SingleWorker, tc.single)
		}
		if sum := got.WindowEvents + got.ChainEvents + got.ExclusiveCommits; sum != stats.EventsDispatched {
			t.Errorf("workers=%d: %d window + %d chain + %d exclusive events, but %d committed", tc.workers, got.WindowEvents, got.ChainEvents, got.ExclusiveCommits, stats.EventsDispatched)
		}
		got.SingleWorker = 0
		if got != formation {
			t.Errorf("workers=%d: window formation %+v, want %+v", tc.workers, got, formation)
		}
	}
}

// TestRepeatedRunJoinsHelpers advances one parallel simulation by 120
// Run(limit) slices under every dispatch regime: it must match the serial
// kernel sliced the same way, and no helper goroutine may outlive a Run
// (runProg checks after every slice). A helper that outlived its Run would
// still be waiting for a post when the next Run started another helper for
// the same worker. Under flip3 the regime changes within slices and across
// their boundaries, since the epoch count carries over from one Run to the
// next.
func TestRepeatedRunJoinsHelpers(t *testing.T) {
	cfg := progCfg{
		seed:      7,
		shards:    6,
		daemons:   2,
		lookahead: 300 * time.Microsecond,
		limit:     60 * time.Millisecond,
		slices:    120,
	}
	want := runConfinedProg(cfg, 0)
	if want.errs != "" || want.stats.EventsDispatched == 0 {
		t.Fatalf("serial oracle: %v", want)
	}
	for _, rc := range regimeCases {
		cfg.regime = rc
		for _, workers := range []int{1, 2, 4, 8} {
			if got := runConfinedProg(cfg, workers); got != want {
				t.Errorf("%s workers=%d diverged from serial:\n got: %v\nwant: %v", rc.name, workers, got, want)
			}
		}
	}
}

// Shape of the BenchmarkWindowBarrier program: barrierShards tickers whose
// periods average 80µs tick every 10µs between them, and a 15µs lookahead
// gathers two or three ticks into each window. Each tick does the load
// daemons' default bookkeeping (workload.BgLoadConfig.WorkPerTick), so a
// window carries about as much work as one of fleet_par's.
const (
	barrierShards    = 8
	barrierLookahead = 15 * time.Microsecond
	barrierWork      = 2000
)

// BenchmarkWindowBarrier prices one window of the parallel kernel — form,
// hand off, dispatch, barrier, replay — at the window size of the
// benchmark's fleet_par, with the windowed regime pinned. An op is one
// tick; ns/window is the figure that compares across barrier designs.
func BenchmarkWindowBarrier(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := New(1)
			s.SetLookahead(barrierLookahead)
			s.ConfigureParallel(workers)
			regimeCase{pin: regimeWindowed}.apply(s)
			for sh := 1; sh <= barrierShards; sh++ {
				s.SpawnOn(sh, "ticker", func(env *Env) error {
					r, h := env.LocalRand(), uint64(env.Shard())
					for i := 0; i < b.N/barrierShards+1; i++ {
						if err := env.Sleep(time.Duration(60+r.Intn(41)) * time.Microsecond); err != nil {
							return err
						}
						for j := 0; j < barrierWork; j++ {
							h = (h ^ uint64(j)) * 1099511628211
						}
					}
					_ = h
					return nil
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := s.Run(0); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			ws := s.WindowStats()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ws.Windows), "ns/window")
			b.ReportMetric(float64(ws.WindowEvents)/float64(ws.Windows), "events/window")
		})
	}
}
