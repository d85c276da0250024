package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"
)

func TestFutureCompletesWithError(t *testing.T) {
	s := New(1)
	f := NewFuture()
	want := errors.New("request failed")
	var got error
	s.Spawn("w", func(env *Env) error {
		_, got = f.Wait(env)
		return nil
	})
	s.Spawn("c", func(env *Env) error {
		if err := env.Sleep(time.Second); err != nil {
			return err
		}
		f.Complete(env, nil, want)
		return nil
	})
	run(t, s)
	if !errors.Is(got, want) {
		t.Fatalf("err = %v, want %v", got, want)
	}
}

func TestFutureDoubleCompleteIsNoop(t *testing.T) {
	s := New(1)
	f := NewFuture()
	f.Complete(nil, 1, nil)
	f.Complete(nil, 2, nil)
	var got any
	s.Spawn("w", func(env *Env) error {
		got, _ = f.Wait(env)
		return nil
	})
	run(t, s)
	if got != 1 {
		t.Fatalf("got %v, want first value", got)
	}
	if !f.Done() {
		t.Fatal("future not done")
	}
}

// TestFutureReset: a zero Future joins one event, and after Reset a
// second; the waiter sees each value in turn. Resetting an unresolved
// future panics, since whatever was to complete it still may.
func TestFutureReset(t *testing.T) {
	s := New(1)
	var f Future
	var got []any
	s.Spawn("w", func(env *Env) error {
		for i := 0; i < 2; i++ {
			v, err := f.Wait(env)
			if err != nil {
				return err
			}
			got = append(got, v)
			f.Reset()
		}
		return nil
	})
	s.Spawn("c", func(env *Env) error {
		for i := 1; i <= 2; i++ {
			if err := env.Sleep(time.Second); err != nil {
				return err
			}
			f.Complete(env, i, nil)
		}
		return nil
	})
	run(t, s)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("waiter saw %v, want [1 2]", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reset of an unresolved future did not panic")
		}
	}()
	f.Reset()
}

// TestFutureWakesWaitersInOrder: a future wakes its waiters in the order
// they queued, whether the first sits alone in the inline slot or a second
// has moved the list to an array of its own, and a waiter that times out
// leaves the others in order: among them the inline waiter dropped after a
// later one queued behind it.
func TestFutureWakesWaitersInOrder(t *testing.T) {
	const ms = time.Millisecond
	type waiter struct{ at, timeout time.Duration } // timeout 0: Wait
	for _, tc := range []struct {
		name    string
		waiters []waiter
		want    []string
	}{
		{"one", []waiter{{0, 0}}, []string{"w0"}},
		{"two", []waiter{{0, 0}, {ms, 0}}, []string{"w0", "w1"}},
		{"three", []waiter{{0, 0}, {ms, 0}, {2 * ms, 0}}, []string{"w0", "w1", "w2"}},
		{"inline times out behind a queued waiter", []waiter{{0, 5 * ms}, {ms, 0}, {6 * ms, 0}},
			[]string{"w0 timed out", "w1", "w2"}},
		{"inline times out alone", []waiter{{0, ms}, {2 * ms, 0}, {3 * ms, 0}},
			[]string{"w0 timed out", "w1", "w2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(1)
			f := NewFuture()
			var got []string
			for i, w := range tc.waiters {
				s.Spawn(fmt.Sprintf("w%d", i), func(env *Env) error {
					if err := env.Sleep(w.at); err != nil {
						return err
					}
					var err error
					if w.timeout > 0 {
						_, err = f.WaitTimeout(env, w.timeout)
					} else {
						_, err = f.Wait(env)
					}
					switch {
					case errors.Is(err, ErrTimeout):
						got = append(got, env.Name()+" timed out")
					case err != nil:
						return err
					default:
						got = append(got, env.Name())
					}
					return nil
				})
			}
			s.Spawn("completer", func(env *Env) error {
				if err := env.Sleep(10 * ms); err != nil {
					return err
				}
				f.Complete(env, nil, nil)
				return nil
			})
			run(t, s)
			if !slices.Equal(got, tc.want) {
				t.Errorf("woken %v, want %v", got, tc.want)
			}
			if len(f.waiters) != 0 || f.wait1[0] != nil {
				t.Errorf("completed future still holds waiters %v, inline %v", f.waiters, f.wait1[0])
			}
		})
	}
}

func TestQueueLenAndSendAfterClose(t *testing.T) {
	s := New(1)
	q := NewQueue(s)
	q.Send(1)
	q.Send(2)
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
	q.Close()
	q.Send(3) // silently dropped
	if q.Len() != 2 {
		t.Fatalf("len after closed send = %d", q.Len())
	}
}

func TestResourceUseReleasesOnSleepError(t *testing.T) {
	s := New(1)
	r := NewResource(s, 1)
	s.Spawn("holder", func(env *Env) error {
		// Stopped mid-Use: the resource must still be released so drain
		// does not wedge other waiters.
		_ = r.Use(env, time.Hour)
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
		t.Fatal(err)
	}
	if s.LiveActivities() != 0 {
		t.Fatal("leaked activities")
	}
}

func TestSpawnAfterRunStarts(t *testing.T) {
	s := New(1)
	order := make([]string, 0, 2)
	s.Spawn("outer", func(env *Env) error {
		if err := env.Sleep(time.Second); err != nil {
			return err
		}
		env.Spawn("inner", func(ienv *Env) error {
			order = append(order, "inner@"+ienv.Now().String())
			return nil
		})
		order = append(order, "outer@"+env.Now().String())
		return env.Sleep(time.Second)
	})
	run(t, s)
	if len(order) != 2 || order[0] != "outer@1s" || order[1] != "inner@1s" {
		t.Fatalf("order = %v", order)
	}
}

func TestRandIsSeedStable(t *testing.T) {
	a, b := New(9).Rand().Int63(), New(9).Rand().Int63()
	if a != b {
		t.Fatal("same seed produced different streams")
	}
	if New(9).Rand().Int63() == New(10).Rand().Int63() {
		t.Fatal("different seeds produced identical first draws")
	}
}
