package sim

import (
	"errors"
	"testing"
	"time"
)

// Directed tests for the guards of sleepInPlace: a Sleep whose wake is the
// next event commits without leaving the activity, but only inside
// runSerial's loop, before Stop, and within Run's limit.

// TestSleepInPlaceHonoursRunLimit: a lone sleeper's wakes all commit in
// place until one would land past Run's limit. That one must not commit: the
// clock stops at the limit, exactly as the parallel kernel (which schedules
// every wake) leaves it.
func TestSleepInPlaceHonoursRunLimit(t *testing.T) {
	const limit = 12 * time.Millisecond
	type result struct {
		now    time.Duration
		ticks  int
		stats  Stats
		digest uint64
	}
	var want result
	for _, workers := range []int{0, 1} {
		s := New(1)
		if workers > 0 {
			s.ConfigureParallel(workers)
		}
		ticks := 0
		s.Spawn("ticker", func(env *Env) error {
			for i := 0; i < 100; i++ {
				if err := env.Sleep(5 * time.Millisecond); err != nil {
					return nil
				}
				ticks++
			}
			return nil
		})
		if err := s.Run(limit); err != nil {
			t.Fatalf("workers=%d: Run: %v", workers, err)
		}
		got := result{s.Now(), ticks, s.Stats(), s.OrderDigest()}
		s.Stop()
		_ = s.Run(0)
		if got.now != limit || got.ticks != 2 || got.stats.EventsDispatched != 3 {
			t.Fatalf("workers=%d: now=%v ticks=%d events=%d, want now=%v ticks=2 events=3",
				workers, got.now, got.ticks, got.stats.EventsDispatched, limit)
		}
		if workers == 0 {
			want = got
		} else if got != want {
			t.Fatalf("workers=%d diverged from serial:\n got: %+v\nwant: %+v", workers, got, want)
		}
	}
}

// TestSleepAfterStopUnwinds: an activity that stops the simulation and then
// sleeps must still unwind with ErrStopped, even though its wake would be
// the next event.
func TestSleepAfterStopUnwinds(t *testing.T) {
	s := New(1)
	var err error
	s.Spawn("stopper", func(env *Env) error {
		s.Stop()
		err = env.Sleep(time.Millisecond)
		return nil
	})
	run(t, s)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Sleep after Stop returned %v, want ErrStopped", err)
	}
	if s.Now() != 0 || s.Stats().EventsDispatched != 1 {
		t.Fatalf("now=%v events=%d after Stop, want 0 and 1", s.Now(), s.Stats().EventsDispatched)
	}
}

// TestDaemonSleepingInDrainCommitsNothing: a daemon unwound at quiescence
// that sleeps once more runs in drain, after the last commit. Its Sleep must
// not commit anything: the order digest, the event count and the clock are
// those of the same run whose daemon returns at once.
func TestDaemonSleepingInDrainCommitsNothing(t *testing.T) {
	type result struct {
		digest uint64
		events uint64
		now    time.Duration
	}
	runOnce := func(sleepAgain bool) result {
		s := New(1)
		q := NewQueue(s)
		s.Spawn("daemon", func(env *Env) error {
			env.MarkDaemon()
			for {
				if _, err := q.Recv(env); err != nil {
					if sleepAgain {
						_ = env.Sleep(time.Millisecond)
					}
					return nil
				}
			}
		})
		s.Spawn("producer", func(env *Env) error {
			for i := 0; i < 3; i++ {
				q.Send(i)
				if err := env.Sleep(time.Millisecond); err != nil {
					return err
				}
			}
			return nil
		})
		run(t, s)
		return result{s.OrderDigest(), s.Stats().EventsDispatched, s.Now()}
	}
	if got, want := runOnce(true), runOnce(false); got != want {
		t.Fatalf("a daemon's Sleep during drain changed the run:\n got: %+v\nwant: %+v", got, want)
	}
}
