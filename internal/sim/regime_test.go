package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// Tests for the parallel kernel's dispatch regimes: the serial regime
// commits every event through commitExclusive, the windowed one forms
// lookahead windows, and the measured one times epochs of both. The
// equivalence tests of parallel_test.go, barrier_test.go and
// carrier_test.go run under every regimeCase.

// regimeCase pins how a parallel kernel picks its regime.
type regimeCase struct {
	name string
	pin  int
	flip uint64 // > 0: alternate the regimes every flip commits
}

// regimeCases are the settings the equivalence tests run under: the
// measured regime as shipped, each regime pinned, and a switch every three
// commits, which puts regime changes everywhere a program can have them.
var regimeCases = []regimeCase{
	{name: "measured"},
	{name: "serial", pin: regimeSerial},
	{name: "windowed", pin: regimeWindowed},
	{name: "flip3", flip: 3},
}

// apply sets rc on s's parallel kernel, if it has one, before its first
// Run. One worker stays serial under the measured regime; flip starts
// serial.
func (rc regimeCase) apply(s *Simulation) {
	if p := s.par; p != nil {
		p.pin, p.flipEvery = rc.pin, rc.flip
	}
}

// TestEpochRule drives nextEpoch with synthetic epoch costs: the kernel
// starts windowed, times the serial regime in its second epoch, keeps the
// cheaper one, and re-times the loser after 8, 16, 32, ... epochs up to 64
// while the same regime keeps winning. A probe that wins resets the
// interval to 8. One worker and pinned regimes never switch.
func TestEpochRule(t *testing.T) {
	s := New(1)
	s.ConfigureParallel(2)
	p := s.par
	p.pin, p.runStart = regimeMeasured, hostNanos()
	p.nextEpoch() // Run's first call, before any commit
	// epoch ends one epoch costing ns per event in the regime in force and
	// reports whether the next one is serial.
	epoch := func(serialNs, windowedNs int64) bool {
		ns := windowedNs
		if p.serial {
			ns = serialNs
		}
		s.stats.EventsDispatched += epochEvents
		p.epochNs, p.runStart = ns*epochEvents, hostNanos()
		p.nextEpoch()
		return p.serial
	}
	// trace renders the regimes of n epochs: S serial, W windowed.
	trace := func(n int, serialNs, windowedNs int64) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			if p.serial {
				b.WriteByte('S')
			} else {
				b.WriteByte('W')
			}
			epoch(serialNs, windowedNs)
		}
		return b.String()
	}
	// Serial wins every time: windows are re-timed after 8, 16 and 32
	// serial epochs.
	want := "WS" + strings.Repeat("S", 8) + "W" + strings.Repeat("S", 16) + "W" + strings.Repeat("S", 32) + "W"
	if got := trace(len(want), 500, 1000); got != want {
		t.Fatalf("serial cheaper:\n got %s\nwant %s", got, want)
	}
	for i := 0; i < 200; i++ {
		epoch(500, 1000)
	}
	if p.probeEvery != maxProbeEvery {
		t.Fatalf("probe interval %d after a long serial streak, want %d", p.probeEvery, maxProbeEvery)
	}
	// Windows get cheaper: the next probe wins, and the interval restarts.
	for p.serial || p.probing {
		epoch(500, 200)
	}
	if p.probeEvery != firstProbe {
		t.Fatalf("probe interval %d after a winning probe, want %d", p.probeEvery, firstProbe)
	}
	want = strings.Repeat("W", 8) + "S" + strings.Repeat("W", 16) + "S"
	if got := trace(len(want), 500, 200); got != want {
		t.Fatalf("windows cheaper:\n got %s\nwant %s", got, want)
	}

	for _, tc := range []struct {
		workers int
		pin     int
		serial  bool
	}{{1, regimeMeasured, true}, {2, regimeSerial, true}, {2, regimeWindowed, false}} {
		s := New(1)
		s.ConfigureParallel(tc.workers)
		regimeCase{pin: tc.pin}.apply(s)
		p := s.par
		for i := 0; i < 100; i++ {
			s.stats.EventsDispatched += epochEvents
			p.epochNs, p.runStart = int64(i%2)*1e9, hostNanos()
			p.nextEpoch()
			if p.serial != tc.serial {
				t.Fatalf("%+v: epoch %d switched regime", tc, i)
			}
		}
	}
}

// TestSleepInPlaceOnlyInSerialRegime: two confined sleepers on two shards
// commit their wakes in place under the serial regime whenever the wake is
// the next event, and each other's resumes by passing the baton, exactly as
// on the serial kernel, and never inside a window. Under every regime the
// parallel kernel matches the serial one, and window, chain and exclusive
// events add up to every committed event.
func TestSleepInPlaceOnlyInSerialRegime(t *testing.T) {
	const limit = 50 * time.Millisecond
	run := func(workers int, rc regimeCase) (uint64, Stats, WindowStats) {
		s := New(5)
		s.SetLookahead(100 * time.Microsecond)
		if workers > 0 {
			s.ConfigureParallel(workers)
			rc.apply(s)
		}
		for sh := 1; sh <= 2; sh++ {
			s.SpawnOn(sh, "sleeper", func(env *Env) error {
				r := env.LocalRand()
				for env.Now() < limit {
					if err := env.Sleep(time.Duration(r.Intn(300)) * time.Microsecond); err != nil {
						return nil
					}
				}
				return nil
			})
		}
		if err := s.Run(0); err != nil {
			t.Fatalf("workers=%d %s: %v", workers, rc.name, err)
		}
		return s.OrderDigest(), s.Stats(), s.WindowStats()
	}
	wantDigest, wantStats, _ := run(0, regimeCase{})
	for _, workers := range []int{1, 2, 4} {
		for _, rc := range regimeCases {
			digest, stats, ws := run(workers, rc)
			name := fmt.Sprintf("workers=%d %s", workers, rc.name)
			if digest != wantDigest || stats != wantStats {
				t.Errorf("%s diverged from serial: digest %#x stats %+v, want %#x %+v", name, digest, stats, wantDigest, wantStats)
			}
			if sum := ws.WindowEvents + ws.ChainEvents + ws.ExclusiveCommits; sum != stats.EventsDispatched {
				t.Errorf("%s: %+v adds up to %d, but %d committed", name, ws, sum, stats.EventsDispatched)
			}
			serialOnly := rc.pin == regimeSerial || workers == 1 && rc.pin == regimeMeasured && rc.flip == 0
			switch {
			case serialOnly && (ws.Windows != 0 || ws.InPlace == 0):
				t.Errorf("%s: serial regime formed %d windows and made %d commits inside activities", name, ws.Windows, ws.InPlace)
			case rc.pin == regimeWindowed && ws.InPlace != 0:
				t.Errorf("%s: windowed regime made %d commits inside activities", name, ws.InPlace)
			case rc.flip > 0 && (ws.Windows == 0 || ws.InPlace == 0):
				t.Errorf("%s: flipping regimes formed %d windows and made %d commits inside activities", name, ws.Windows, ws.InPlace)
			}
		}
	}
}
