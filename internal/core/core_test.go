package core

import (
	"errors"
	"testing"
	"time"

	"sprite/internal/fs"
	"sprite/internal/sim"
)

// newCluster builds a small test cluster with a seeded binary.
func newCluster(t *testing.T, workstations int) *Cluster {
	t.Helper()
	return newShapedCluster(t, workstations, false)
}

// eachShape runs test as one subtest per cluster shape: "unconfined", every
// host on the exclusive shard with direct RPC, and "confined", each host on
// its own shard with mailbox RPC (Params.Sim.ConfineHosts).
func eachShape(t *testing.T, test func(t *testing.T, confined bool)) {
	for _, confined := range []bool{false, true} {
		name := "unconfined"
		if confined {
			name = "confined"
		}
		t.Run(name, func(t *testing.T) { test(t, confined) })
	}
}

// newShapedCluster is newCluster in either shape; a confined one fails the
// test unless its transport is confined.
func newShapedCluster(t *testing.T, workstations int, confined bool) *Cluster {
	t.Helper()
	params := DefaultParams()
	params.Sim.ConfineHosts = confined
	c, err := NewCluster(Options{Workstations: workstations, FileServers: 1, Seed: 1, Params: &params})
	if err != nil {
		t.Fatal(err)
	}
	if confined && !c.Transport().Confined() {
		t.Fatal("cluster is not confined")
	}
	if err := c.SeedBinary("/bin/prog", 128*1024); err != nil {
		t.Fatal(err)
	}
	return c
}

func runCluster(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.Run(0); err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	if n := c.Sim().LiveActivities(); n != 0 {
		t.Fatalf("leaked %d activities", n)
	}
}

var smallProc = ProcConfig{Binary: "/bin/prog", CodePages: 4, HeapPages: 8, StackPages: 2}

func TestProcessRunsAndExits(t *testing.T) {
	c := newCluster(t, 1)
	var status any
	c.Boot("boot", func(env *sim.Env) error {
		p, err := c.Workstation(0).StartProcess(env, "hello", func(ctx *Ctx) error {
			if err := ctx.Compute(100 * time.Millisecond); err != nil {
				return err
			}
			return ctx.Exit(7)
		}, smallProc)
		if err != nil {
			return err
		}
		status, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if status != 7 {
		t.Fatalf("status = %v, want 7", status)
	}
}

func TestComputeChargesCPUAndLoad(t *testing.T) {
	c := newCluster(t, 1)
	k := c.Workstation(0)
	c.Boot("boot", func(env *sim.Env) error {
		p, err := k.StartProcess(env, "burn", func(ctx *Ctx) error {
			return ctx.Compute(2 * time.Second)
		}, smallProc)
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if c.Sim().Now() < 2*time.Second {
		t.Fatalf("elapsed %v, want >= 2s", c.Sim().Now())
	}
	if k.CPU().BusyTime(c.Sim().Now()) < 2*time.Second {
		t.Fatalf("cpu busy %v, want >= 2s", k.CPU().BusyTime(c.Sim().Now()))
	}
}

func TestForkAndWait(t *testing.T) {
	c := newCluster(t, 1)
	var waited PID
	var wstatus int
	c.Boot("boot", func(env *sim.Env) error {
		p, err := c.Workstation(0).StartProcess(env, "parent", func(ctx *Ctx) error {
			child, err := ctx.Fork("child", func(cc *Ctx) error {
				if err := cc.Compute(50 * time.Millisecond); err != nil {
					return err
				}
				return cc.Exit(3)
			}, smallProc)
			if err != nil {
				return err
			}
			waited, wstatus, err = ctx.Wait()
			if err != nil {
				return err
			}
			if waited != child.PID() {
				t.Errorf("waited %v, want %v", waited, child.PID())
			}
			return nil
		}, smallProc)
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if wstatus != 3 {
		t.Fatalf("wait status = %d, want 3", wstatus)
	}
}

func TestWaitNoChildren(t *testing.T) {
	c := newCluster(t, 1)
	var werr error
	c.Boot("boot", func(env *sim.Env) error {
		p, err := c.Workstation(0).StartProcess(env, "lonely", func(ctx *Ctx) error {
			_, _, werr = ctx.Wait()
			return nil
		}, smallProc)
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if !errors.Is(werr, ErrNoChildren) {
		t.Fatalf("err = %v, want ErrNoChildren", werr)
	}
}

func TestFileSyscalls(t *testing.T) {
	c := newCluster(t, 1)
	c.Boot("boot", func(env *sim.Env) error {
		p, err := c.Workstation(0).StartProcess(env, "io", func(ctx *Ctx) error {
			fd, err := ctx.Open("/out", fs.WriteMode, fs.OpenOptions{Create: true})
			if err != nil {
				return err
			}
			if _, err := ctx.Write(fd, []byte("payload")); err != nil {
				return err
			}
			if err := ctx.Close(fd); err != nil {
				return err
			}
			rd, err := ctx.Open("/out", fs.ReadMode, fs.OpenOptions{})
			if err != nil {
				return err
			}
			got, err := ctx.Read(rd, 100)
			if err != nil {
				return err
			}
			if string(got) != "payload" {
				t.Errorf("read %q", got)
			}
			size, err := ctx.Stat("/out")
			if err != nil {
				return err
			}
			if size != 7 {
				t.Errorf("size = %d", size)
			}
			return ctx.Close(rd)
		}, smallProc)
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
}

// migrateOnce runs a process that dirties memory, migrates it, and verifies
// it completes correctly on the target.
func migrateOnce(t *testing.T, strategy TransferStrategy) (c *Cluster, rec MigrationRecord) {
	t.Helper()
	c = newCluster(t, 2)
	c.SetStrategyAll(strategy)
	src, dst := c.Workstation(0), c.Workstation(1)
	c.Boot("boot", func(env *sim.Env) error {
		p, err := src.StartProcess(env, "mover", func(ctx *Ctx) error {
			if err := ctx.TouchHeap(0, 8, true); err != nil {
				return err
			}
			if err := ctx.Migrate(dst.Host()); err != nil {
				return err
			}
			if ctx.Process().Current() != dst {
				t.Errorf("process on %v, want %v", ctx.Process().Current().Host(), dst.Host())
			}
			// Touch memory again on the target: pages must come back.
			if err := ctx.TouchHeap(0, 8, true); err != nil {
				return err
			}
			return ctx.Compute(10 * time.Millisecond)
		}, smallProc)
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	recs := c.MigrationRecords()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	return c, recs[0]
}

func TestMigrationSpriteFlush(t *testing.T) {
	c, rec := migrateOnce(t, SpriteFlushStrategy{})
	if rec.Strategy != "sprite-flush" {
		t.Fatalf("strategy = %s", rec.Strategy)
	}
	if rec.PagesFlushed != 8 {
		t.Fatalf("flushed = %d, want 8", rec.PagesFlushed)
	}
	if rec.Residual {
		t.Fatal("sprite flush must not leave residual dependencies")
	}
	if rec.Total <= 0 || rec.Freeze != rec.Total {
		t.Fatalf("times: total=%v freeze=%v", rec.Total, rec.Freeze)
	}
	// Stream transfer must include the heap/stack backing and binary.
	if rec.Files < 3 {
		t.Fatalf("files = %d, want >= 3", rec.Files)
	}
	src := c.Workstation(0)
	if src.Stats().MigrationsOut != 1 {
		t.Fatalf("src stats = %+v", src.Stats())
	}
	if c.Workstation(1).Stats().MigrationsIn != 1 {
		t.Fatalf("dst stats = %+v", c.Workstation(1).Stats())
	}
}

func TestMigrationFullCopy(t *testing.T) {
	_, rec := migrateOnce(t, FullCopyStrategy{})
	if rec.PagesCopied == 0 {
		t.Fatal("full copy moved no pages")
	}
	if rec.Residual {
		t.Fatal("full copy must not leave residual dependencies")
	}
}

func TestMigrationCopyOnReference(t *testing.T) {
	_, rec := migrateOnce(t, CopyOnReferenceStrategy{})
	if !rec.Residual {
		t.Fatal("copy-on-reference must record a residual dependency")
	}
	// Page tables only: far smaller than one page.
	if rec.VMBytes >= 8192 {
		t.Fatalf("vm bytes = %d, want < one page", rec.VMBytes)
	}
}

func TestMigrationPreCopy(t *testing.T) {
	_, rec := migrateOnce(t, PreCopyStrategy{RedirtyPagesPerSec: 100})
	if rec.PagesCopied == 0 {
		t.Fatal("pre-copy moved no pages")
	}
	if rec.Freeze >= rec.Total {
		t.Fatalf("pre-copy freeze %v should be < total %v", rec.Freeze, rec.Total)
	}
}

func TestFreezeTimeOrdering(t *testing.T) {
	// The central design comparison: for the same dirty footprint,
	// freeze(COR) < freeze(pre-copy) < freeze(full-copy), and Sprite's
	// flush sits near full copy (bounded by dirty pages, not all pages).
	freeze := func(s TransferStrategy) time.Duration {
		_, rec := migrateOnce(t, s)
		return rec.Freeze
	}
	cor := freeze(CopyOnReferenceStrategy{})
	pre := freeze(PreCopyStrategy{RedirtyPagesPerSec: 100})
	full := freeze(FullCopyStrategy{})
	if !(cor < full) {
		t.Errorf("freeze: cor=%v full=%v, want cor < full", cor, full)
	}
	if !(pre < full) {
		t.Errorf("freeze: pre=%v full=%v, want pre < full", pre, full)
	}
}

func TestTransparencyAcrossMigration(t *testing.T) {
	c := newCluster(t, 2)
	src, dst := c.Workstation(0), c.Workstation(1)
	c.Boot("boot", func(env *sim.Env) error {
		p, err := src.StartProcess(env, "transparent", func(ctx *Ctx) error {
			pidBefore, err := ctx.GetPID()
			if err != nil {
				return err
			}
			hostBefore, err := ctx.GetHostname()
			if err != nil {
				return err
			}
			if err := ctx.Migrate(dst.Host()); err != nil {
				return err
			}
			pidAfter, err := ctx.GetPID()
			if err != nil {
				return err
			}
			hostAfter, err := ctx.GetHostname()
			if err != nil {
				return err
			}
			if pidBefore != pidAfter {
				t.Errorf("pid changed across migration: %v -> %v", pidBefore, pidAfter)
			}
			if hostBefore != hostAfter {
				t.Errorf("hostname changed across migration: %v -> %v", hostBefore, hostAfter)
			}
			if hostAfter != src.Host().String() {
				t.Errorf("hostname = %v, want home %v", hostAfter, src.Host())
			}
			return nil
		}, smallProc)
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
}

func TestOpenFileSurvivesMigration(t *testing.T) {
	c := newCluster(t, 2)
	src, dst := c.Workstation(0), c.Workstation(1)
	c.Boot("boot", func(env *sim.Env) error {
		p, err := src.StartProcess(env, "filemover", func(ctx *Ctx) error {
			fd, err := ctx.Open("/log", fs.WriteMode, fs.OpenOptions{Create: true})
			if err != nil {
				return err
			}
			if _, err := ctx.Write(fd, []byte("before ")); err != nil {
				return err
			}
			if err := ctx.Migrate(dst.Host()); err != nil {
				return err
			}
			if _, err := ctx.Write(fd, []byte("after")); err != nil {
				return err
			}
			return ctx.Close(fd)
		}, smallProc)
		if err != nil {
			return err
		}
		if _, err := p.Exited().Wait(env); err != nil {
			return err
		}
		// Verify the file's contents from a third party.
		got, err := dst.FSClient().ReadFile(env, "/log")
		if err != nil {
			return err
		}
		if string(got) != "before after" {
			t.Errorf("file = %q, want %q", got, "before after")
		}
		return nil
	})
	runCluster(t, c)
}

func TestForwardedCallsCostMoreWhenForeign(t *testing.T) {
	c := newCluster(t, 2)
	src, dst := c.Workstation(0), c.Workstation(1)
	var localCost, remoteCost time.Duration
	c.Boot("boot", func(env *sim.Env) error {
		p, err := src.StartProcess(env, "timer", func(ctx *Ctx) error {
			t0 := ctx.Now()
			if _, err := ctx.GetTimeOfDay(); err != nil {
				return err
			}
			localCost = ctx.Now() - t0
			if err := ctx.Migrate(dst.Host()); err != nil {
				return err
			}
			t0 = ctx.Now()
			if _, err := ctx.GetTimeOfDay(); err != nil {
				return err
			}
			remoteCost = ctx.Now() - t0
			return nil
		}, smallProc)
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if remoteCost <= localCost {
		t.Fatalf("forwarded gettimeofday %v should exceed local %v", remoteCost, localCost)
	}
	if dst.Stats().ForwardedCalls == 0 {
		t.Fatal("no forwarded calls recorded")
	}
}

func TestExecTimeMigrationSkipsVM(t *testing.T) {
	c := newCluster(t, 2)
	src, dst := c.Workstation(0), c.Workstation(1)
	c.Boot("boot", func(env *sim.Env) error {
		p, err := src.StartProcess(env, "launcher", func(ctx *Ctx) error {
			child, err := ctx.ForkRemoteExec("worker", func(cc *Ctx) error {
				if cc.Process().Current() != dst {
					t.Errorf("worker on %v, want %v", cc.Process().Current().Host(), dst.Host())
				}
				return cc.Compute(20 * time.Millisecond)
			}, smallProc, dst.Host())
			if err != nil {
				return err
			}
			_, err = child.Exited().Wait(ctx.Env())
			return err
		}, smallProc)
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	recs := c.MigrationRecords()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	if !recs[0].ExecTime {
		t.Fatal("migration not marked exec-time")
	}
	if recs[0].VMBytes != 0 || recs[0].PagesFlushed != 0 {
		t.Fatalf("exec-time migration moved VM: %+v", recs[0])
	}
	if src.Stats().RemoteExecs != 1 {
		t.Fatalf("remote execs = %d", src.Stats().RemoteExecs)
	}
}

func TestEvictionSendsForeignProcessesHome(t *testing.T) {
	c := newCluster(t, 2)
	home, away := c.Workstation(0), c.Workstation(1)
	c.Boot("boot", func(env *sim.Env) error {
		p, err := home.StartProcess(env, "guest", func(ctx *Ctx) error {
			if err := ctx.Migrate(away.Host()); err != nil {
				return err
			}
			return ctx.Compute(10 * time.Second)
		}, smallProc)
		if err != nil {
			return err
		}
		// Let it migrate and run a bit, then the away host's user returns.
		if err := env.Sleep(2 * time.Second); err != nil {
			return err
		}
		if len(away.ForeignProcesses()) != 1 {
			t.Errorf("foreign on away = %d, want 1", len(away.ForeignProcesses()))
		}
		if err := away.EvictAll(env); err != nil {
			return err
		}
		if len(away.ForeignProcesses()) != 0 {
			t.Error("foreign processes remain after eviction")
		}
		if p.Current() != home {
			t.Errorf("process on %v after eviction, want home", p.Current().Host())
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if away.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", away.Stats().Evictions)
	}
}

func TestSharedMemoryProcessRefusesMigration(t *testing.T) {
	c := newCluster(t, 2)
	src, dst := c.Workstation(0), c.Workstation(1)
	var merr error
	c.Boot("boot", func(env *sim.Env) error {
		p, err := src.StartProcess(env, "shared", func(ctx *Ctx) error {
			ctx.Process().SetShared(true)
			done := src.RequestMigration(ctx.Process(), dst, "test")
			_, merr = done.Wait(ctx.Env())
			return nil
		}, smallProc)
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if !errors.Is(merr, ErrNotMigratable) {
		t.Fatalf("err = %v, want ErrNotMigratable", merr)
	}
}

func TestMigrationVersionMismatchRejected(t *testing.T) {
	eachShape(t, func(t *testing.T, confined bool) {
		c := newShapedCluster(t, 2, confined)
		src, dst := c.Workstation(0), c.Workstation(1)
		dst.SetMigrationVersion(2)
		var merr error
		c.Boot("boot", func(env *sim.Env) error {
			p, err := src.StartProcess(env, "versioned", func(ctx *Ctx) error {
				merr = ctx.Migrate(dst.Host())
				return nil
			}, smallProc)
			if err != nil {
				return err
			}
			_, err = p.Exited().Wait(env)
			return err
		})
		runCluster(t, c)
		if !errors.Is(merr, ErrVersionMismatch) {
			t.Fatalf("err = %v, want ErrVersionMismatch", merr)
		}
	})
}

func TestKillRoutedThroughHome(t *testing.T) {
	c := newCluster(t, 2)
	src, dst := c.Workstation(0), c.Workstation(1)
	c.Boot("boot", func(env *sim.Env) error {
		victim, err := src.StartProcess(env, "victim", func(ctx *Ctx) error {
			if err := ctx.Migrate(dst.Host()); err != nil {
				return err
			}
			return ctx.Compute(time.Hour)
		}, smallProc)
		if err != nil {
			return err
		}
		if err := env.Sleep(2 * time.Second); err != nil {
			return err
		}
		killer, err := src.StartProcess(env, "killer", func(ctx *Ctx) error {
			return ctx.Kill(victim.PID())
		}, smallProc)
		if err != nil {
			return err
		}
		if _, err := killer.Exited().Wait(env); err != nil {
			return err
		}
		st, err := victim.Exited().Wait(env)
		if err != nil {
			return err
		}
		if st != -1 {
			t.Errorf("victim status = %v, want -1 (killed)", st)
		}
		return nil
	})
	runCluster(t, c)
}

func TestHomeRecordTracksLocation(t *testing.T) {
	c := newCluster(t, 2)
	src, dst := c.Workstation(0), c.Workstation(1)
	c.Boot("boot", func(env *sim.Env) error {
		p, err := src.StartProcess(env, "tracked", func(ctx *Ctx) error {
			if err := ctx.Migrate(dst.Host()); err != nil {
				return err
			}
			return ctx.Compute(time.Second)
		}, smallProc)
		if err != nil {
			return err
		}
		if err := env.Sleep(500 * time.Millisecond); err != nil {
			return err
		}
		loc, err := src.LocationOf(p.PID())
		if err != nil {
			return err
		}
		if loc != dst.Host() {
			t.Errorf("location = %v, want %v", loc, dst.Host())
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
}

func TestChildOfForeignProcessBelongsToHome(t *testing.T) {
	eachShape(t, func(t *testing.T, confined bool) {
		c := newShapedCluster(t, 2, confined)
		src, dst := c.Workstation(0), c.Workstation(1)
		c.Boot("boot", func(env *sim.Env) error {
			p, err := src.StartProcess(env, "parent", func(ctx *Ctx) error {
				if err := ctx.Migrate(dst.Host()); err != nil {
					return err
				}
				child, err := ctx.Fork("kid", func(cc *Ctx) error {
					return cc.Exit(0)
				}, smallProc)
				if err != nil {
					return err
				}
				if child.PID().Home != src.Host() {
					t.Errorf("child home = %v, want %v", child.PID().Home, src.Host())
				}
				if child.Current() != dst {
					t.Errorf("child runs on %v, want parent's host %v", child.Current().Host(), dst.Host())
				}
				_, _, err = ctx.Wait()
				return err
			}, smallProc)
			if err != nil {
				return err
			}
			_, err = p.Exited().Wait(env)
			return err
		})
		runCluster(t, c)
	})
}

func TestIdleDetection(t *testing.T) {
	c := newCluster(t, 1)
	k := c.Workstation(0)
	c.Boot("boot", func(env *sim.Env) error {
		k.NoteInput(env.Now())
		if k.Available(env.Now()) {
			t.Error("host with fresh input should not be available")
		}
		if err := env.Sleep(time.Minute); err != nil {
			return err
		}
		if !k.Available(env.Now()) {
			t.Error("quiet host should be available")
		}
		// Load makes it unavailable even when input is old.
		p, err := k.StartProcess(env, "burn", func(ctx *Ctx) error {
			return ctx.Compute(2 * time.Minute)
		}, smallProc)
		if err != nil {
			return err
		}
		if err := env.Sleep(90 * time.Second); err != nil {
			return err
		}
		if k.Available(env.Now()) {
			t.Error("loaded host should not be available")
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
}

func TestTwoComputeProcessesShareCPU(t *testing.T) {
	c := newCluster(t, 1)
	k := c.Workstation(0)
	var end1, end2 time.Duration
	c.Boot("boot", func(env *sim.Env) error {
		p1, err := k.StartProcess(env, "a", func(ctx *Ctx) error {
			err := ctx.Compute(10 * time.Second)
			end1 = ctx.Now()
			return err
		}, smallProc)
		if err != nil {
			return err
		}
		p2, err := k.StartProcess(env, "b", func(ctx *Ctx) error {
			err := ctx.Compute(10 * time.Second)
			end2 = ctx.Now()
			return err
		}, smallProc)
		if err != nil {
			return err
		}
		if _, err := p1.Exited().Wait(env); err != nil {
			return err
		}
		_, err = p2.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if end1 < 19*time.Second || end2 < 19*time.Second {
		t.Fatalf("ends = %v, %v; want ~20s (processor sharing)", end1, end2)
	}
}

func TestMigrationDuringComputeAtQuantum(t *testing.T) {
	c := newCluster(t, 2)
	src, dst := c.Workstation(0), c.Workstation(1)
	c.Boot("boot", func(env *sim.Env) error {
		p, err := src.StartProcess(env, "busy", func(ctx *Ctx) error {
			return ctx.Compute(5 * time.Second)
		}, smallProc)
		if err != nil {
			return err
		}
		if err := env.Sleep(time.Second); err != nil {
			return err
		}
		done := src.RequestMigration(p, dst, "policy")
		if _, err := done.Wait(env); err != nil {
			return err
		}
		if p.Current() != dst {
			t.Errorf("process on %v, want %v", p.Current().Host(), dst.Host())
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
}

func TestMigrateToSelfIsNoop(t *testing.T) {
	c := newCluster(t, 1)
	k := c.Workstation(0)
	c.Boot("boot", func(env *sim.Env) error {
		p, err := k.StartProcess(env, "self", func(ctx *Ctx) error {
			return ctx.Migrate(k.Host())
		}, smallProc)
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if len(c.MigrationRecords()) != 0 {
		t.Fatal("self-migration should not record a migration")
	}
}

func TestSyscallTableCoverage(t *testing.T) {
	// Every policy class must be represented, and the calls the simulator
	// dispatches must be classified.
	counts := make(map[HandlingPolicy]int)
	for _, p := range SyscallTable {
		counts[p]++
	}
	for _, p := range []HandlingPolicy{PolicyLocal, PolicyFile, PolicyHome, PolicyTransfer, PolicyDenied} {
		if counts[p] == 0 {
			t.Errorf("no syscalls classified %v", p)
		}
	}
	for _, call := range []string{"getpid", "gettimeofday", "open", "read", "write", "fork", "wait", "exec", "exit", "kill", "migrate", "gethostname"} {
		if _, ok := SyscallTable[call]; !ok {
			t.Errorf("dispatched call %q missing from table", call)
		}
	}
}
