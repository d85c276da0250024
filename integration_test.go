// Integration tests: end-to-end scenarios across the public facade —
// builds that survive evictions, process families spanning hosts, and
// ablation knobs, all through the same API the examples use.
package sprite_test

import (
	"math/rand"
	"testing"
	"time"

	"sprite"
	"sprite/internal/fs"
	"sprite/internal/pmake"
	"sprite/internal/sim"
)

func newFacadeCluster(t *testing.T, workstations int, params *sprite.Params) *sprite.Cluster {
	t.Helper()
	c, err := sprite.NewCluster(sprite.Options{Workstations: workstations, FileServers: 1, Seed: 21, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	for _, bin := range []string{"/bin/prog", "/bin/cc", "/bin/pmake"} {
		if err := c.SeedBinary(bin, 128<<10); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestBuildSurvivesMidBuildEviction: a parallel build is underway on
// borrowed hosts when one host's owner returns; the worker is evicted to
// its home machine mid-job and the build still completes with correct
// outputs.
func TestBuildSurvivesMidBuildEviction(t *testing.T) {
	c := newFacadeCluster(t, 4, nil)
	proj := pmake.DefaultProjectParams()
	proj.Units = 6
	proj.CompileCPU = 2 * time.Second
	proj.LinkCPU = time.Second
	proj.LookupsPerUnit = 5
	mf, err := pmake.SyntheticProject(c, rand.New(rand.NewSource(2)), proj)
	if err != nil {
		t.Fatal(err)
	}
	submit := c.Workstation(0)
	victim := c.Workstation(1)
	var res *pmake.Result
	c.Boot("boot", func(env *sim.Env) error {
		var hosts []sprite.HostID
		for _, k := range c.Workstations()[1:] {
			hosts = append(hosts, k.Host())
		}
		p, err := submit.StartProcess(env, "pmake", func(ctx *sprite.Ctx) error {
			r, err := pmake.Run(ctx, mf, pmake.Options{Force: true, Hosts: hosts})
			res = r
			return err
		}, sprite.ProcConfig{Binary: "/bin/pmake", CodePages: 8, HeapPages: 16, StackPages: 2})
		if err != nil {
			return err
		}
		// Mid-first-wave, the owner of one borrowed host returns.
		if err := env.Sleep(1500 * time.Millisecond); err != nil {
			return err
		}
		victim.NoteInput(env.Now())
		if err := victim.EvictAll(env); err != nil {
			return err
		}
		if _, err := p.Exited().Wait(env); err != nil {
			return err
		}
		// Verify outputs despite the disruption.
		_, size, err := submit.FSClient().Stat(env, "/src/prog")
		if err != nil {
			return err
		}
		if size != proj.BinaryBytes {
			t.Errorf("binary size = %d, want %d", size, proj.BinaryBytes)
		}
		return nil
	})
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Jobs != 7 {
		t.Fatalf("result = %+v, want 7 jobs", res)
	}
	evicted := 0
	for _, rec := range c.MigrationRecords() {
		if rec.Reason == "eviction" {
			evicted++
		}
	}
	if evicted == 0 {
		t.Fatal("no eviction happened mid-build")
	}
}

// TestFamilySpansHosts: a migrated parent forks children on its current
// host; waits and kills route through the home machine correctly, on both
// cluster shapes.
func TestFamilySpansHosts(t *testing.T) {
	for _, confined := range []bool{false, true} {
		name := "unconfined"
		if confined {
			name = "confined"
		}
		t.Run(name, func(t *testing.T) {
			params := sprite.DefaultParams()
			params.Sim.ConfineHosts = confined
			c := newFacadeCluster(t, 3, &params)
			home, away := c.Workstation(0), c.Workstation(1)
			cfg := sprite.ProcConfig{Binary: "/bin/prog", CodePages: 4, HeapPages: 8, StackPages: 2}
			c.Boot("boot", func(env *sim.Env) error {
				p, err := home.StartProcess(env, "matriarch", func(ctx *sprite.Ctx) error {
					if err := ctx.Migrate(away.Host()); err != nil {
						return err
					}
					// Three children, forked while foreign.
					for i := 0; i < 3; i++ {
						d := time.Duration(i+1) * 100 * time.Millisecond
						if _, err := ctx.Fork("kid", func(cc *sprite.Ctx) error {
							return cc.Compute(d)
						}, cfg); err != nil {
							return err
						}
					}
					// Wait for all three through the home machine.
					for i := 0; i < 3; i++ {
						if _, _, err := ctx.Wait(); err != nil {
							return err
						}
					}
					return nil
				}, cfg)
				if err != nil {
					return err
				}
				_, err = p.Exited().Wait(env)
				return err
			})
			if err := c.Run(0); err != nil {
				t.Fatal(err)
			}
			if home.HomeProcessCount() != 0 {
				t.Fatalf("home records remain: %d", home.HomeProcessCount())
			}
		})
	}
}

// TestWriteThroughAblationPreservesCorrectness: with write-through caching
// the consistency recalls disappear but cross-host reads stay correct.
func TestWriteThroughAblationPreservesCorrectness(t *testing.T) {
	params := sprite.DefaultParams()
	params.FS.WriteThrough = true
	c := newFacadeCluster(t, 2, &params)
	a, b := c.Workstation(0), c.Workstation(1)
	c.Boot("boot", func(env *sim.Env) error {
		if err := a.FSClient().WriteFile(env, "/x", []byte("through")); err != nil {
			return err
		}
		if a.FSClient().DirtyBlocks() != 0 {
			t.Error("write-through left dirty blocks")
		}
		got, err := b.FSClient().ReadFile(env, "/x")
		if err != nil {
			return err
		}
		if string(got) != "through" {
			t.Errorf("read %q", got)
		}
		return nil
	})
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if c.Servers()[0].Stats().FlushRecall != 0 {
		t.Fatal("write-through should not need flush recalls")
	}
}

// TestStrategySwapThroughFacade: the public API can swap all four transfer
// strategies and each completes a migration.
func TestStrategySwapThroughFacade(t *testing.T) {
	strategies := []sprite.TransferStrategy{
		sprite.SpriteFlushStrategy{},
		sprite.FullCopyStrategy{},
		sprite.CopyOnReferenceStrategy{},
		sprite.PreCopyStrategy{RedirtyPagesPerSec: 25},
	}
	for _, s := range strategies {
		c := newFacadeCluster(t, 2, nil)
		c.SetStrategyAll(s)
		dst := c.Workstation(1)
		c.Boot("boot", func(env *sim.Env) error {
			p, err := c.Workstation(0).StartProcess(env, "m", func(ctx *sprite.Ctx) error {
				if err := ctx.TouchHeap(0, 8, true); err != nil {
					return err
				}
				return ctx.Migrate(dst.Host())
			}, sprite.ProcConfig{Binary: "/bin/prog", CodePages: 4, HeapPages: 8, StackPages: 2})
			if err != nil {
				return err
			}
			_, err = p.Exited().Wait(env)
			return err
		})
		if err := c.Run(0); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		recs := c.MigrationRecords()
		if len(recs) != 1 || recs[0].Strategy != s.Name() {
			t.Fatalf("%s: records = %+v", s.Name(), recs)
		}
	}
}

// TestAppendixAConformance exercises every modeled kernel call before and
// after migration and asserts the per-class behaviour from Appendix A.
func TestAppendixAConformance(t *testing.T) {
	c := newFacadeCluster(t, 2, nil)
	if err := c.Seed("/data/conf", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	dst := c.Workstation(1)
	cfg := sprite.ProcConfig{Binary: "/bin/prog", CodePages: 4, HeapPages: 8, StackPages: 2}
	c.Boot("boot", func(env *sim.Env) error {
		p, err := c.Workstation(0).StartProcess(env, "conform", func(ctx *sprite.Ctx) error {
			type result struct {
				pid  sprite.PID
				host string
				data string
			}
			probe := func() (result, error) {
				var r result
				var err error
				if r.pid, err = ctx.GetPID(); err != nil {
					return r, err
				}
				if r.host, err = ctx.GetHostname(); err != nil {
					return r, err
				}
				fd, err := ctx.Open("/data/conf", fs.ReadMode, fs.OpenOptions{})
				if err != nil {
					return r, err
				}
				data, err := ctx.Read(fd, 10)
				if err != nil {
					return r, err
				}
				r.data = string(data)
				return r, ctx.Close(fd)
			}
			before, err := probe()
			if err != nil {
				return err
			}
			if err := ctx.Migrate(dst.Host()); err != nil {
				return err
			}
			after, err := probe()
			if err != nil {
				return err
			}
			if before != after {
				t.Errorf("observable behaviour changed across migration:\n before %+v\n after  %+v", before, after)
			}
			// Denied class: shared-memory processes refuse to migrate.
			ctx.Process().SetShared(true)
			err = ctx.Migrate(c.Workstation(0).Host())
			if err == nil {
				t.Error("shared-memory migrate should be denied")
			}
			ctx.Process().SetShared(false)
			return nil
		}, cfg)
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
}
