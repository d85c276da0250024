package core

import (
	"fmt"
	"testing"
	"time"

	"sprite/internal/sim"
)

// TestPsListingTransparency: a migrated process appears (with its remote
// location) in its HOME machine's listing, and not at all in the remote
// machine's home listing.
func TestPsListingTransparency(t *testing.T) {
	c := newCluster(t, 2)
	home, away := c.Workstation(0), c.Workstation(1)
	c.Boot("boot", func(env *sim.Env) error {
		p, err := home.StartProcess(env, "visible", func(ctx *Ctx) error {
			if err := ctx.Migrate(away.Host()); err != nil {
				return err
			}
			return ctx.Compute(2 * time.Second)
		}, smallProc)
		if err != nil {
			return err
		}
		if err := env.Sleep(time.Second); err != nil {
			return err
		}
		rows := home.ListHomeProcesses()
		if len(rows) != 1 {
			t.Fatalf("home ps rows = %d, want 1", len(rows))
		}
		if rows[0].PID != p.PID() || !rows[0].Foreign || rows[0].Location != away.Host() {
			t.Errorf("home ps row = %+v", rows[0])
		}
		if got := away.ListHomeProcesses(); len(got) != 0 {
			t.Errorf("remote host's home listing shows %d rows, want 0", len(got))
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
}

// TestChaos runs a randomized storm of process starts, migrations,
// evictions, and kills across several seeds — for every VM transfer strategy
// — then checks conservation invariants: every started process exits exactly
// once, no process table entries or home records leak, and per-kernel
// migration counters balance.
func TestChaos(t *testing.T) {
	strategies := []TransferStrategy{
		SpriteFlushStrategy{},
		FullCopyStrategy{},
		CopyOnReferenceStrategy{},
		PreCopyStrategy{RedirtyPagesPerSec: 100},
	}
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		strategy := strategies[int(seed-1)%len(strategies)]
		t.Run(fmt.Sprintf("seed%d-%s-batched", seed, strategy.Name()), func(t *testing.T) {
			const hosts = 5
			c, err := NewCluster(Options{Workstations: hosts, FileServers: 1, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			c.SetStrategyAll(strategy)
			if err := c.SeedBinary("/bin/prog", 64<<10); err != nil {
				t.Fatal(err)
			}
			ws := c.Workstations()
			var procs []*Process
			c.Boot("chaos", func(env *sim.Env) error {
				rng := env.Rand()
				// Start a population of workers with mixed lifetimes.
				for i := 0; i < 25; i++ {
					k := ws[rng.Intn(hosts)]
					life := time.Duration(100+rng.Intn(3000)) * time.Millisecond
					p, err := k.StartProcess(env, fmt.Sprintf("w%d", i), func(ctx *Ctx) error {
						if err := ctx.TouchHeap(0, 4, true); err != nil {
							return err
						}
						return ctx.Compute(life)
					}, smallProc)
					if err != nil {
						return err
					}
					procs = append(procs, p)
					if err := env.Sleep(time.Duration(rng.Intn(50)) * time.Millisecond); err != nil {
						return err
					}
				}
				// Storm: random migrations, evictions, kills.
				for i := 0; i < 60; i++ {
					if err := env.Sleep(time.Duration(rng.Intn(100)) * time.Millisecond); err != nil {
						return err
					}
					switch rng.Intn(4) {
					case 0, 1: // migrate a random live process
						p := procs[rng.Intn(len(procs))]
						if p.State() != StateRunning {
							continue
						}
						target := ws[rng.Intn(hosts)]
						done := p.Current().RequestMigration(p, target, "chaos")
						// Don't wait: let it happen (or fail) concurrently.
						_ = done
					case 2: // evict a random host
						k := ws[rng.Intn(hosts)]
						if err := k.EvictAll(env); err != nil {
							return err
						}
					case 3: // kill a random process
						p := procs[rng.Intn(len(procs))]
						if p.State() != StateRunning {
							continue
						}
						p.post(env, SigKill)
					}
				}
				// Join everything.
				for _, p := range procs {
					if _, err := p.Exited().Wait(env); err != nil {
						return err
					}
				}
				return nil
			})
			if err := c.Run(0); err != nil {
				t.Fatal(err)
			}
			// Invariants.
			var started, exited uint64
			var in, out uint64
			for _, k := range ws {
				st := k.Stats()
				started += st.ProcsStarted
				exited += st.ProcsExited
				in += st.MigrationsIn
				out += st.MigrationsOut
				if n := len(k.Processes()); n != 0 {
					t.Errorf("%v still has %d processes", k.Host(), n)
				}
				if n := k.HomeProcessCount(); n != 0 {
					t.Errorf("%v still has %d home records", k.Host(), n)
				}
			}
			if started != 25 {
				t.Errorf("started = %d, want 25", started)
			}
			// Exits are counted at the host where each process ended.
			if exited != 25 {
				t.Errorf("exited = %d, want 25", exited)
			}
			if in != out {
				t.Errorf("migrations in (%d) != out (%d)", in, out)
			}
			if c.Sim().LiveActivities() != 0 {
				t.Errorf("leaked %d activities", c.Sim().LiveActivities())
			}
			if v := c.CheckInvariants(true); len(v) != 0 {
				t.Errorf("invariants violated: %v", v)
			}
		})
	}
}
