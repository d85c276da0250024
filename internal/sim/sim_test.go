package sim

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func run(t *testing.T, s *Simulation) {
	t.Helper()
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := s.LiveActivities(); n != 0 {
		t.Fatalf("leaked %d activities", n)
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	s := New(1)
	var at time.Duration
	s.Spawn("sleeper", func(env *Env) error {
		if err := env.Sleep(5 * time.Second); err != nil {
			return err
		}
		at = env.Now()
		return nil
	})
	run(t, s)
	if at != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", at)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("sim time %v, want 5s", s.Now())
	}
}

func TestEventOrderingIsDeterministic(t *testing.T) {
	order := func(seed int64) []string {
		s := New(seed)
		var got []string
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("a%d", i)
			s.Spawn(name, func(env *Env) error {
				if err := env.Sleep(time.Second); err != nil {
					return err
				}
				got = append(got, env.Name())
				return nil
			})
		}
		if err := s.Run(0); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return got
	}
	first := order(42)
	second := order(42)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("non-deterministic order: %v vs %v", first, second)
		}
	}
	// Ties at the same timestamp resolve in spawn order.
	want := []string{"a0", "a1", "a2", "a3", "a4"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order %v, want %v", first, want)
		}
	}
}

func TestSpawnFromActivity(t *testing.T) {
	s := New(1)
	var childRan bool
	s.Spawn("parent", func(env *Env) error {
		env.Spawn("child", func(env *Env) error {
			childRan = true
			return nil
		})
		return env.Sleep(time.Millisecond)
	})
	run(t, s)
	if !childRan {
		t.Fatal("child did not run")
	}
}

func TestActivityErrorPropagates(t *testing.T) {
	s := New(1)
	want := errors.New("boom")
	s.Spawn("bad", func(env *Env) error { return want })
	if err := s.Run(0); !errors.Is(err, want) {
		t.Fatalf("Run err = %v, want %v", err, want)
	}
}

func TestActivityPanicBecomesError(t *testing.T) {
	s := New(1)
	s.Spawn("panicky", func(env *Env) error { panic("oh no") })
	err := s.Run(0)
	if err == nil {
		t.Fatal("expected error from panicking activity")
	}
}

func TestFutureWakesWaiters(t *testing.T) {
	s := New(1)
	f := NewFuture()
	var got any
	var wokenAt time.Duration
	s.Spawn("waiter", func(env *Env) error {
		v, err := f.Wait(env)
		if err != nil {
			return err
		}
		got = v
		wokenAt = env.Now()
		return nil
	})
	s.Spawn("completer", func(env *Env) error {
		if err := env.Sleep(3 * time.Second); err != nil {
			return err
		}
		f.Complete(env, 99, nil)
		return nil
	})
	run(t, s)
	if got != 99 {
		t.Fatalf("got %v, want 99", got)
	}
	if wokenAt != 3*time.Second {
		t.Fatalf("woken at %v, want 3s", wokenAt)
	}
}

func TestFutureWaitAfterComplete(t *testing.T) {
	s := New(1)
	f := NewFuture()
	f.Complete(nil, "done", nil)
	var got any
	s.Spawn("late", func(env *Env) error {
		v, err := f.Wait(env)
		got = v
		return err
	})
	run(t, s)
	if got != "done" {
		t.Fatalf("got %v", got)
	}
}

func TestFutureWaitTimeout(t *testing.T) {
	s := New(1)
	f := NewFuture()
	var gotErr error
	var at time.Duration
	s.Spawn("waiter", func(env *Env) error {
		_, gotErr = f.WaitTimeout(env, time.Second)
		at = env.Now()
		return nil
	})
	run(t, s)
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
	if at != time.Second {
		t.Fatalf("timed out at %v, want 1s", at)
	}
}

func TestFutureWaitTimeoutResolvedEarly(t *testing.T) {
	s := New(1)
	f := NewFuture()
	var got any
	var gotErr error
	s.Spawn("waiter", func(env *Env) error {
		got, gotErr = f.WaitTimeout(env, 10*time.Second)
		return nil
	})
	s.Spawn("completer", func(env *Env) error {
		if err := env.Sleep(time.Second); err != nil {
			return err
		}
		f.Complete(env, 7, nil)
		return nil
	})
	run(t, s)
	if gotErr != nil || got != 7 {
		t.Fatalf("got %v/%v, want 7/nil", got, gotErr)
	}
}

func TestQueueFIFO(t *testing.T) {
	s := New(1)
	q := NewQueue(s)
	var got []int
	s.Spawn("recv", func(env *Env) error {
		for i := 0; i < 3; i++ {
			v, err := q.Recv(env)
			if err != nil {
				return err
			}
			got = append(got, v.(int))
		}
		return nil
	})
	s.Spawn("send", func(env *Env) error {
		for i := 1; i <= 3; i++ {
			if err := env.Sleep(time.Second); err != nil {
				return err
			}
			q.Send(i)
		}
		return nil
	})
	run(t, s)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestQueueCloseWakesReceivers(t *testing.T) {
	s := New(1)
	q := NewQueue(s)
	var gotErr error
	s.Spawn("recv", func(env *Env) error {
		_, gotErr = q.Recv(env)
		return nil
	})
	s.Spawn("closer", func(env *Env) error {
		if err := env.Sleep(time.Second); err != nil {
			return err
		}
		q.Close()
		return nil
	})
	run(t, s)
	if !errors.Is(gotErr, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", gotErr)
	}
}

func TestResourceSerializes(t *testing.T) {
	s := New(1)
	r := NewResource(s, 1)
	var ends []time.Duration
	for i := 0; i < 3; i++ {
		s.Spawn(fmt.Sprintf("user%d", i), func(env *Env) error {
			if err := r.Use(env, time.Second); err != nil {
				return err
			}
			ends = append(ends, env.Now())
			return nil
		})
	}
	run(t, s)
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if r.BusyTime() != 3*time.Second {
		t.Fatalf("busy = %v, want 3s", r.BusyTime())
	}
}

func TestResourceMultipleSlots(t *testing.T) {
	s := New(1)
	r := NewResource(s, 2)
	var last time.Duration
	for i := 0; i < 4; i++ {
		s.Spawn(fmt.Sprintf("u%d", i), func(env *Env) error {
			if err := r.Use(env, time.Second); err != nil {
				return err
			}
			if env.Now() > last {
				last = env.Now()
			}
			return nil
		})
	}
	run(t, s)
	if last != 2*time.Second {
		t.Fatalf("last completion %v, want 2s (2 slots)", last)
	}
}

func TestWaitGroup(t *testing.T) {
	s := New(1)
	wg := NewWaitGroup()
	var doneAt time.Duration
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * time.Second
		s.Spawn(fmt.Sprintf("w%d", i), func(env *Env) error {
			defer wg.Done()
			return env.Sleep(d)
		})
	}
	s.Spawn("waiter", func(env *Env) error {
		if err := wg.Wait(env); err != nil {
			return err
		}
		doneAt = env.Now()
		return nil
	})
	run(t, s)
	if doneAt != 3*time.Second {
		t.Fatalf("waited until %v, want 3s", doneAt)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New(1)
	f := NewFuture()
	s.Spawn("stuck", func(env *Env) error {
		_, err := f.Wait(env)
		return err
	})
	err := s.Run(0)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	// Clean up the parked goroutine.
	s.Stop()
	if err := s.Run(0); err != nil && !errors.Is(err, ErrDeadlock) {
		t.Fatalf("cleanup Run: %v", err)
	}
	if s.LiveActivities() != 0 {
		t.Fatalf("leaked activities after Stop")
	}
}

func TestStopWakesBlockedActivities(t *testing.T) {
	s := New(1)
	q := NewQueue(s)
	var gotErr error
	s.Spawn("recv", func(env *Env) error {
		_, gotErr = q.Recv(env)
		return nil
	})
	s.Spawn("stopper", func(env *Env) error {
		if err := env.Sleep(time.Second); err != nil {
			return err
		}
		s.Stop()
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(gotErr, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", gotErr)
	}
	if s.LiveActivities() != 0 {
		t.Fatal("leaked activities")
	}
}

func TestRunLimitStopsEarly(t *testing.T) {
	s := New(1)
	ticks := 0
	s.Spawn("ticker", func(env *Env) error {
		for i := 0; i < 1000; i++ {
			if err := env.Sleep(time.Second); err != nil {
				return err
			}
			ticks++
		}
		return nil
	})
	if err := s.Run(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	if s.Now() != 10*time.Second {
		t.Fatalf("now = %v, want 10s", s.Now())
	}
	s.Stop()
	_ = s.Run(0)
}

func TestAfterCallback(t *testing.T) {
	s := New(1)
	var at time.Duration
	s.After(7*time.Second, func() { at = s.Now() })
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 7*time.Second {
		t.Fatalf("callback at %v, want 7s", at)
	}
}

func TestCPUProcessorSharing(t *testing.T) {
	s := New(1)
	cpu := NewCPU(s, 10*time.Millisecond)
	var ends [2]time.Duration
	for i := 0; i < 2; i++ {
		idx := i
		s.Spawn(fmt.Sprintf("job%d", i), func(env *Env) error {
			if err := cpu.Compute(env, time.Second); err != nil {
				return err
			}
			ends[idx] = env.Now()
			return nil
		})
	}
	run(t, s)
	// Two 1s jobs sharing one CPU should both finish around 2s.
	for i, e := range ends {
		if e < 1900*time.Millisecond || e > 2100*time.Millisecond {
			t.Fatalf("job%d ended at %v, want ~2s", i, e)
		}
	}
	if cpu.BusyTime(s.Now()) != 2*time.Second {
		t.Fatalf("busy = %v, want 2s", cpu.BusyTime(s.Now()))
	}
}

func TestCPULoadAverageRisesAndDecays(t *testing.T) {
	s := New(1)
	cpu := NewCPU(s, 10*time.Millisecond)
	cpu.SetHalfLife(10 * time.Second)
	var during, after float64
	s.Spawn("load", func(env *Env) error {
		if err := cpu.Compute(env, 60*time.Second); err != nil {
			return err
		}
		during = cpu.LoadAverage(env.Now())
		return nil
	})
	s.Spawn("probe", func(env *Env) error {
		if err := env.Sleep(200 * time.Second); err != nil {
			return err
		}
		after = cpu.LoadAverage(env.Now())
		return nil
	})
	run(t, s)
	if during < 0.5 {
		t.Fatalf("load during compute = %v, want >= 0.5", during)
	}
	if after > 0.3 {
		t.Fatalf("load after idle = %v, want < 0.3", after)
	}
}

func TestZeroAndNegativeSleep(t *testing.T) {
	s := New(1)
	s.Spawn("z", func(env *Env) error {
		if err := env.Sleep(0); err != nil {
			return err
		}
		if err := env.Sleep(-time.Second); err != nil {
			return err
		}
		if env.Now() != 0 {
			return fmt.Errorf("time moved: %v", env.Now())
		}
		return nil
	})
	run(t, s)
}

func TestYieldInterleaving(t *testing.T) {
	s := New(1)
	var order []string
	s.Spawn("a", func(env *Env) error {
		order = append(order, "a1")
		if err := env.Yield(); err != nil {
			return err
		}
		order = append(order, "a2")
		return nil
	})
	s.Spawn("b", func(env *Env) error {
		order = append(order, "b1")
		return nil
	})
	run(t, s)
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestResourceWaitTimeAccounting(t *testing.T) {
	s := New(1)
	r := NewResource(s, 1)
	for i := 0; i < 2; i++ {
		s.Spawn(fmt.Sprintf("u%d", i), func(env *Env) error {
			return r.Use(env, time.Second)
		})
	}
	run(t, s)
	if r.WaitTime() != time.Second {
		t.Fatalf("wait = %v, want 1s", r.WaitTime())
	}
	if r.Acquired() != 2 {
		t.Fatalf("acquired = %d, want 2", r.Acquired())
	}
}
