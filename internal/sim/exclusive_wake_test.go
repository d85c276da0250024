package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// runExclusiveWakeProg runs confined completers that resolve futures
// exclusive (shard 0) waiters block on. Each shard's completer resolves its
// rounds' futures at LocalRand-paced instants, stamping each with the
// completion time; its shard-0 waiter takes the rounds in turn, with Wait or
// with WaitTimeout at a deadline drawn on both sides of the lookahead. The
// waiter logs every outcome into the fingerprint's inbox and fails the run
// when a wake misses its instant: a blocked waiter must resume exactly one
// lookahead after the completion, even when its deadline fell in between,
// and a timed-out one exactly at its deadline. Confined tickers keep the
// windows busy between completions.
func runExclusiveWakeProg(cfg progCfg, workers int) kernelFP {
	s, traceB := newProgSim(cfg, workers)
	const rounds = 40
	la := cfg.lookahead
	var inbox strings.Builder
	for sh := 1; sh <= cfg.shards; sh++ {
		futs := make([]*Future, rounds)
		for i := range futs {
			futs[i] = NewFuture()
		}
		s.SpawnOn(sh, fmt.Sprintf("completer-%d", sh), func(env *Env) error {
			r := env.LocalRand()
			for _, f := range futs {
				if err := env.Sleep(time.Duration(r.Intn(1500)+1) * time.Microsecond); err != nil {
					return err
				}
				f.Complete(env, env.Now(), nil)
			}
			return nil
		})
		s.SpawnOn(sh, fmt.Sprintf("ticker-%d", sh), func(env *Env) error {
			r := env.LocalRand()
			for env.Now() < cfg.limit {
				if err := env.Sleep(time.Duration(r.Intn(200)+1) * time.Microsecond); err != nil {
					return err
				}
			}
			return nil
		})
		s.Spawn(fmt.Sprintf("waiter-%d", sh), func(env *Env) error {
			for i, f := range futs {
				blocked, start := !f.Done(), env.Now()
				var v any
				var err error
				d := time.Duration(env.Rand().Intn(int(2*la/time.Microsecond))+1) * time.Microsecond
				if i%2 == 0 {
					v, err = f.Wait(env)
				} else {
					v, err = f.WaitTimeout(env, d)
				}
				now := env.Now()
				var want time.Duration
				switch {
				case errors.Is(err, ErrTimeout):
					want = start + d
				case err != nil:
					return err
				case blocked:
					want = v.(time.Duration) + la
				default:
					want = start
				}
				late := err == nil && i%2 == 1 && now > start+d
				fmt.Fprintf(&inbox, "%s round=%d blocked=%v late=%v err=%v at=%v\n", env.Name(), i, blocked, late, err, now)
				if now != want {
					return fmt.Errorf("round %d resumed at %v, want %v", i, now, want)
				}
			}
			return nil
		})
	}
	fp := runProg(s, cfg, traceB)
	fp.inbox = inbox.String()
	return fp
}

// TestExclusiveWakeLandsOneLookaheadLater pins the one cross-shard wake the
// confined contract allows at a distance: a confined activity completing a
// future an exclusive activity waits on resumes that waiter exactly one
// lookahead later, and a completion that lands inside a WaitTimeout's
// deadline wins over it even when the resume falls past the deadline. The
// serial kernel is the oracle: every worker count under every regime must
// commit the same order, count the same stats, and log the same outcomes.
func TestExclusiveWakeLandsOneLookaheadLater(t *testing.T) {
	cfg := progCfg{seed: 42, shards: 4, lookahead: 500 * time.Microsecond, limit: 80 * time.Millisecond}
	want := runExclusiveWakeProg(cfg, 0)
	if want.runErr != "" || want.errs != "" {
		t.Fatalf("serial run failed: %s %s", want.runErr, want.errs)
	}
	for _, kind := range []string{"blocked=true late=false err=<nil>", "blocked=true late=true", "err=sim: wait timed out", "blocked=false"} {
		if !strings.Contains(want.inbox, kind) {
			t.Errorf("no waiter ever logged %q", kind)
		}
	}
	for _, rc := range regimeCases {
		cfg.regime = rc
		for _, workers := range []int{1, 2, 4, 8} {
			if got := runExclusiveWakeProg(cfg, workers); got != want {
				t.Errorf("%s workers=%d diverged from serial:\n got: %v\nwant: %v", rc.name, workers, got, want)
			}
		}
	}
}

// TestFutureCompleteAcrossConfinedShardsPanics: the deferred wake is for
// exclusive waiters only. A confined completer whose waiter is confined to
// another shard still breaks the contract, and both kernels say so.
func TestFutureCompleteAcrossConfinedShardsPanics(t *testing.T) {
	for _, workers := range []int{0, 2} {
		s := New(1)
		s.SetLookahead(time.Millisecond)
		if workers > 0 {
			s.ConfigureParallel(workers)
			regimeCase{pin: regimeWindowed}.apply(s)
		}
		f := NewFuture()
		s.SpawnOn(2, "waiter", func(env *Env) error {
			_, err := f.Wait(env)
			return err
		})
		s.SpawnOn(1, "completer", func(env *Env) error {
			if err := env.Sleep(time.Millisecond); err != nil {
				return err
			}
			f.Complete(env, nil, nil)
			return nil
		})
		err := s.Run(0)
		if err == nil || !strings.Contains(err.Error(), `"completer": panic: `+crossShardWake) {
			t.Errorf("workers=%d: want the completer's cross-shard wake panic, got %v", workers, err)
		}
	}
}
