package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sprite/internal/fs"
	"sprite/internal/sim"
	"sprite/internal/trace"
)

// This file is the equivalence suite for per-host confinement (DESIGN.md
// §14): every simulated host homed on its own shard, the whole
// RPC/FS/migration plane dispatching inside lookahead windows. The
// conservative kernel commits the serial order bit-for-bit, so a confined
// run must produce the identical OrderDigest, trace stream, and metrics
// snapshot at every worker count — and identical to the serial oracle
// running the same confined code path.

// requireKernel fails the test unless the cluster runs on the kernel simp
// asked for. SPRITE_SIM_PARALLEL overrides every cluster's kernel, serial
// baselines included, so a test that compares kernels clears the variable
// first; this is the check that the pin held.
func requireKernel(t *testing.T, c *Cluster, simp SimParams) {
	t.Helper()
	if got := c.Sim().Parallel(); got != simp.Parallel {
		t.Fatalf("asked for Parallel=%v, kernel reports %v (SPRITE_SIM_PARALLEL=%q)", simp.Parallel, got, os.Getenv("SPRITE_SIM_PARALLEL"))
	}
}

// confinedFingerprint runs one migration-heavy confined scenario and folds
// everything observable — committed order, final virtual time, the full
// trace stream, migration counts, and the metrics snapshot — into one
// string. Any divergence between kernels shows up as a byte difference.
func confinedFingerprint(t *testing.T, strategy TransferStrategy, simp SimParams) string {
	t.Helper()
	params := DefaultParams()
	params.Sim = simp
	params.Sim.ConfineHosts = true
	const W = 4
	c, err := NewCluster(Options{Workstations: W, FileServers: 1, Seed: 7, Params: &params})
	if err != nil {
		t.Fatal(err)
	}
	requireKernel(t, c, simp)
	c.SetStrategyAll(strategy)
	var events strings.Builder
	c.SetTrace(func(ev trace.Event) {
		fmt.Fprintf(&events, "%v %s %s\n", ev.At, ev.Kind, ev.Detail())
	})
	if err := c.SeedBinary("/bin/prog", 64<<10); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < W; i++ {
		if err := c.Seed(fmt.Sprintf("/data/f%d", i), []byte(strings.Repeat("x", 2048))); err != nil {
			t.Fatal(err)
		}
	}
	ws := c.Workstations()
	for i := 0; i < W; i++ {
		i := i
		k := ws[i]
		peer := ws[(i+1)%W]
		// Each host's driver boots on that host's shard (BootOn): it starts
		// home processes, requests migrations, and joins exits without ever
		// touching another shard's kernel.
		c.BootOn(k.Host(), fmt.Sprintf("driver-%d", i), func(env *sim.Env) error {
			// A worker that opens a file at home, migrates with the stream,
			// keeps writing from the new host, and computes long enough for
			// the peer's evictor to push it home again mid-run.
			mig, err := k.StartProcess(env, fmt.Sprintf("mig-%d", i), func(ctx *Ctx) error {
				fd, err := ctx.Open(fmt.Sprintf("/data/f%d", i), fs.ReadWriteMode, fs.OpenOptions{})
				if err != nil {
					return err
				}
				if err := ctx.TouchHeap(0, 24, true); err != nil {
					return err
				}
				if err := ctx.Migrate(peer.Host()); err != nil {
					return err
				}
				if _, err := ctx.Write(fd, []byte(strings.Repeat("y", 512))); err != nil {
					return err
				}
				if err := ctx.TouchHeap(0, 8, false); err != nil {
					return err
				}
				if err := ctx.Compute(150 * time.Millisecond); err != nil {
					return err
				}
				return ctx.Close(fd)
			}, ProcConfig{Binary: "/bin/prog", CodePages: 4, HeapPages: 24, StackPages: 2})
			if err != nil {
				return err
			}
			// The pmake path: a master forks a child that execs on the peer
			// (exec-time migration, no VM transfer), then waits for it. The
			// child exits foreign, so its exit settles home via k.exitNotify.
			master, err := k.StartProcess(env, fmt.Sprintf("master-%d", i), func(ctx *Ctx) error {
				_, err := ctx.ForkRemoteExec(fmt.Sprintf("rx-%d", i), func(cc *Ctx) error {
					if err := cc.TouchHeap(0, 8, true); err != nil {
						return err
					}
					return cc.Compute(30 * time.Millisecond)
				}, ProcConfig{Binary: "/bin/prog", CodePages: 2, HeapPages: 8, StackPages: 1}, peer.Host())
				if err != nil {
					return err
				}
				_, _, err = ctx.Wait()
				return err
			}, ProcConfig{CodePages: 1, HeapPages: 2, StackPages: 1})
			if err != nil {
				return err
			}
			if _, err := mig.Exited().Wait(env); err != nil {
				return err
			}
			_, err = master.Exited().Wait(env)
			return err
		})
		// Each host also reclaims itself partway through the run, evicting
		// whatever foreign processes landed here back to their homes.
		c.BootOn(k.Host(), fmt.Sprintf("evictor-%d", i), func(env *sim.Env) error {
			if err := env.Sleep(100 * time.Millisecond); err != nil {
				return err
			}
			return k.EvictAll(env)
		})
	}
	runCluster(t, c)
	if msgs := c.CheckInvariants(true); len(msgs) > 0 {
		t.Fatalf("invariants violated:\n%s", strings.Join(msgs, "\n"))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digest=%#x now=%v\n", c.Sim().OrderDigest(), c.Sim().Now())
	fmt.Fprintf(&b, "migrations=%d\n", len(c.MigrationRecords()))
	b.WriteString(events.String())
	b.WriteString(c.MetricsSnapshot().Text())
	return b.String()
}

// TestConfinedMigrationEquivalence is the core acceptance property of host
// confinement: for every VM transfer strategy, the serial oracle and the
// parallel kernel at 1/2/4/8 workers produce byte-identical fingerprints
// (order digest + traces + metrics) with hosts confined.
func TestConfinedMigrationEquivalence(t *testing.T) {
	t.Setenv("SPRITE_SIM_PARALLEL", "")
	strategies := []TransferStrategy{
		SpriteFlushStrategy{},
		FullCopyStrategy{},
		CopyOnReferenceStrategy{},
		PreCopyStrategy{RedirtyPagesPerSec: 100},
	}
	for _, strategy := range strategies {
		strategy := strategy
		t.Run("batched/"+strategy.Name(), func(t *testing.T) {
			serial := confinedFingerprint(t, strategy, SimParams{})
			for _, workers := range []int{1, 2, 4, 8} {
				par := confinedFingerprint(t, strategy, SimParams{Parallel: true, Workers: workers})
				if par != serial {
					t.Fatalf("workers=%d diverged from serial oracle:\n--- parallel ---\n%.2000s\n--- serial ---\n%.2000s", workers, par, serial)
				}
			}
		})
	}
}

// TestConfinedGoldenFrozen pins the sprite-flush confined
// fingerprint byte for byte under testdata/. A golden that moves here means
// either an intentional cost-model change (regenerate with -update-golden)
// or a determinism leak in the confined plane.
func TestConfinedGoldenFrozen(t *testing.T) {
	got := confinedFingerprint(t, SpriteFlushStrategy{}, SimParams{Parallel: true, Workers: 4})
	path := filepath.Join("testdata", "confined_batched.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Fatalf("confined golden moved:\n--- got ---\n%.3000s\n--- want ---\n%.3000s", got, string(want))
	}
}

// TestConfinedCrossHostStorm is the -race stress leg: a dense all-to-all
// storm of migrating, forking, and file-writing processes across 8 confined
// hosts, dispatched on 4 workers. Running it under `go test -race` (`make
// race`) audits every shard handoff in the confined
// RPC/FS/migration plane; the digest check keeps the storm honest against
// the serial oracle.
func TestConfinedCrossHostStorm(t *testing.T) {
	t.Setenv("SPRITE_SIM_PARALLEL", "")
	storm := func(simp SimParams) string {
		params := DefaultParams()
		params.Sim = simp
		params.Sim.ConfineHosts = true
		const W = 8
		c, err := NewCluster(Options{Workstations: W, FileServers: 2, Seed: 11, Params: &params})
		if err != nil {
			t.Fatal(err)
		}
		requireKernel(t, c, simp)
		if err := c.SeedBinary("/bin/prog", 32<<10); err != nil {
			t.Fatal(err)
		}
		if err := c.Seed("/data/shared", []byte(strings.Repeat("s", 4096))); err != nil {
			t.Fatal(err)
		}
		ws := c.Workstations()
		strategies := []TransferStrategy{
			SpriteFlushStrategy{},
			FullCopyStrategy{},
			CopyOnReferenceStrategy{},
			PreCopyStrategy{RedirtyPagesPerSec: 100},
		}
		for i := 0; i < W; i++ {
			i := i
			k := ws[i]
			k.SetStrategy(strategies[i%len(strategies)])
			c.BootOn(k.Host(), fmt.Sprintf("storm-%d", i), func(env *sim.Env) error {
				var procs []*Process
				for j := 0; j < 3; j++ {
					target := ws[(i+j+1)%W]
					p, err := k.StartProcess(env, fmt.Sprintf("s-%d-%d", i, j), func(ctx *Ctx) error {
						if err := ctx.TouchHeap(0, 12, true); err != nil {
							return err
						}
						if err := ctx.Migrate(target.Host()); err != nil {
							return err
						}
						fd, err := ctx.Open("/data/shared", fs.ReadMode, fs.OpenOptions{})
						if err != nil {
							return err
						}
						if _, err := ctx.Read(fd, 1024); err != nil {
							return err
						}
						if err := ctx.Close(fd); err != nil {
							return err
						}
						if err := ctx.Compute(40 * time.Millisecond); err != nil {
							return err
						}
						// Bounce once more before exiting foreign.
						return ctx.Migrate(ws[(i+j+3)%W].Host())
					}, ProcConfig{Binary: "/bin/prog", CodePages: 2, HeapPages: 12, StackPages: 1})
					if err != nil {
						return err
					}
					procs = append(procs, p)
				}
				for _, p := range procs {
					if _, err := p.Exited().Wait(env); err != nil {
						return err
					}
				}
				return nil
			})
		}
		runCluster(t, c)
		if msgs := c.CheckInvariants(true); len(msgs) > 0 {
			t.Fatalf("invariants violated:\n%s", strings.Join(msgs, "\n"))
		}
		return fmt.Sprintf("digest=%#x now=%v migs=%d", c.Sim().OrderDigest(), c.Sim().Now(), len(c.MigrationRecords()))
	}
	serial := storm(SimParams{})
	par := storm(SimParams{Parallel: true, Workers: 4})
	if par != serial {
		t.Fatalf("storm diverged: parallel %q vs serial %q", par, serial)
	}
}

// TestConfinedContract verifies the §14 restrictions fail loudly rather
// than corrupt a run: the crash/restart plane and migration aborts panic on
// a confined cluster.
func TestConfinedContract(t *testing.T) {
	newConfined := func(t *testing.T) *Cluster {
		t.Helper()
		params := DefaultParams()
		params.Sim.ConfineHosts = true
		c, err := NewCluster(Options{Workstations: 2, FileServers: 1, Seed: 1, Params: &params})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Activity panics surface as the activity's error, which Run reports.
	t.Run("crash-panics", func(t *testing.T) {
		c := newConfined(t)
		c.BootOn(c.Workstation(0).Host(), "crasher", func(env *sim.Env) error {
			c.CrashHost(env, c.Workstation(1).Host())
			return nil
		})
		err := c.Run(0)
		if err == nil || !strings.Contains(err.Error(), "not supported under host confinement") {
			t.Fatalf("confined CrashHost: err = %v, want confinement panic", err)
		}
	})
	t.Run("abort-panics", func(t *testing.T) {
		c := newConfined(t)
		if err := c.SeedBinary("/bin/prog", 8<<10); err != nil {
			t.Fatal(err)
		}
		c.SetFailpoint(func(env *sim.Env, fp Failpoint, pid PID) error {
			if fp == FailMigInit {
				return fmt.Errorf("injected")
			}
			return nil
		})
		src, dst := c.Workstation(0), c.Workstation(1)
		c.BootOn(src.Host(), "driver", func(env *sim.Env) error {
			p, err := src.StartProcess(env, "victim", func(ctx *Ctx) error {
				return ctx.Migrate(dst.Host())
			}, ProcConfig{Binary: "/bin/prog", CodePages: 1, HeapPages: 4, StackPages: 1})
			if err != nil {
				return err
			}
			_, err = p.Exited().Wait(env)
			return err
		})
		err := c.Run(0)
		if err == nil || !strings.Contains(err.Error(), "migration abort") {
			t.Fatalf("confined migration abort: err = %v, want abort panic", err)
		}
	})
}

// TestConfineRefusalsAreErrors: a network confinement cannot serve — a
// contended medium, or a zero latency that leaves no lookahead — is a
// configuration NewCluster rejects with an error, not a panic that takes
// the whole test binary down.
func TestConfineRefusalsAreErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Params)
	}{
		{"contended", func(p *Params) { p.Net.Contended = true }},
		{"zero latency", func(p *Params) { p.Net.Latency = 0 }},
	} {
		params := DefaultParams()
		params.Sim.ConfineHosts = true
		c.edit(&params)
		_, err := NewCluster(Options{Workstations: 2, FileServers: 1, Seed: 1, Params: &params})
		if err == nil || !strings.Contains(err.Error(), "ConfineHosts") {
			t.Errorf("%s: NewCluster error = %v, want ConfineHosts's refusal", c.name, err)
		}
	}
}
