package core

import (
	"fmt"
	"testing"
	"time"

	"sprite/internal/allocs"
	"sprite/internal/fs"
	"sprite/internal/rpc"
	"sprite/internal/sim"
	"sprite/internal/vm"
)

var allStrategies = []TransferStrategy{
	SpriteFlushStrategy{}, FullCopyStrategy{}, CopyOnReferenceStrategy{}, PreCopyStrategy{RedirtyPagesPerSec: 100},
}

// openFiles opens n distinct seeded files in ctx's process.
func openFiles(ctx *Ctx, n int) error {
	for i := 0; i < n; i++ {
		if _, err := ctx.Open(fmt.Sprintf("/data/f%d", i), fs.ReadMode, fs.OpenOptions{}); err != nil {
			return err
		}
	}
	return nil
}

func seedFiles(t *testing.T, c *Cluster, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := c.SeedBinary(fmt.Sprintf("/data/f%d", i), 16*1024); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentHopsKeepTheirOwnRecords: two processes with different
// numbers of open files ask to leave one source at the same instant, under
// each strategy, so their hops overlap. Each record must carry its own PID and stream count, and its
// phases must tile its own total. A migration scratch kept on the source
// kernel instead of the process lets the later hop overwrite the earlier.
func TestConcurrentHopsKeepTheirOwnRecords(t *testing.T) {
	for _, s := range allStrategies {
		t.Run(s.Name(), func(t *testing.T) {
			c := newCluster(t, 2)
			seedFiles(t, c, 4)
			c.SetStrategyAll(s)
			src, dst := c.Workstation(0), c.Workstation(1)
			files := map[PID]int{}
			c.Boot("boot", func(env *sim.Env) error {
				var procs []*Process
				for _, n := range []int{1, 4} {
					p, err := src.StartProcess(env, "hop", func(ctx *Ctx) error {
						if err := openFiles(ctx, n); err != nil {
							return err
						}
						if err := ctx.TouchHeap(0, smallProc.HeapPages, true); err != nil {
							return err
						}
						if err := ctx.Nap(time.Second - ctx.Now()); err != nil {
							return err
						}
						return ctx.Migrate(dst.Host())
					}, smallProc)
					if err != nil {
						return err
					}
					// The image's three backing streams move too.
					files[p.PID()] = n + 3
					procs = append(procs, p)
				}
				for _, p := range procs {
					if _, err := p.Exited().Wait(env); err != nil {
						return err
					}
				}
				return nil
			})
			runCluster(t, c)
			recs := c.MigrationRecords()
			if len(recs) != 2 || recs[0].PID == recs[1].PID || recs[1].Start >= recs[0].Start+recs[0].Total {
				t.Fatalf("records = %+v, want two overlapping hops of two processes", recs)
			}
			for _, r := range recs {
				if r.Files != files[r.PID] {
					t.Errorf("%v moved %d streams, want %d", r.PID, r.Files, files[r.PID])
				}
				if sum := r.NegotiateTime + r.VMTime + r.FileTime + r.PCBTime + r.ResumeTime; sum != r.Total || r.Total <= 0 {
					t.Errorf("%v: phases sum to %v, total %v", r.PID, sum, r.Total)
				}
				if r.Strategy != s.Name() || r.From != src.Host() || r.To != dst.Host() {
					t.Errorf("%v: record %+v names the wrong hop", r.PID, r)
				}
			}
		})
	}
}

// TestSourceCrashWhileStreamsMove: the source host crashes while a
// migrating process's stream mover is between streams. The crash
// interrupts the hop's join, so the hop ends before its mover; the mover
// then releases what it moved and completes the join itself. The run must
// end with clean invariants and the join completed, and the scratch's
// reuse rule (Future.Reset panics on an unresolved future) must not fire:
// resetting the join while the mover still ran would.
func TestSourceCrashWhileStreamsMove(t *testing.T) {
	const nfiles = 8
	c := newCluster(t, 2)
	seedFiles(t, c, nfiles)
	src, dst := c.Workstation(0), c.Workstation(1)
	var p *Process
	movedAtCrash := -1
	c.Boot("boot", func(env *sim.Env) error {
		var err error
		p, err = src.StartProcess(env, "victim", func(ctx *Ctx) error {
			if err := openFiles(ctx, nfiles); err != nil {
				return err
			}
			return ctx.Migrate(dst.Host())
		}, smallProc)
		if err != nil {
			return err
		}
		for p.State() != StateExited {
			if p.mig.mover != nil && !p.mig.join.Done() && len(p.migMoved) > 0 {
				movedAtCrash = len(p.migMoved)
				c.CrashHost(env, src.Host())
				c.ReapDeadHost(env, src.Host(), c.HostEpoch(src.Host()))
				break
			}
			if err := env.Sleep(50 * time.Microsecond); err != nil {
				return err
			}
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if movedAtCrash < 1 || movedAtCrash >= nfiles {
		t.Fatalf("crash came with %d of %d+ streams moved, want mid-move", movedAtCrash, nfiles)
	}
	if !p.mig.join.Done() || len(p.migMoved) != 0 {
		t.Errorf("after the run: join done %v, %d moved streams still held", p.mig.join.Done(), len(p.migMoved))
	}
	if n := len(c.MigrationRecords()); n != 0 {
		t.Errorf("%d migration records, want none for a crashed hop", n)
	}
	if v := c.CheckInvariants(true); len(v) != 0 {
		t.Fatalf("invariants: %v", v)
	}
}

// TestCopyOnReferenceFetchNamesTheProcess: every k.fetchPage a process
// sends after a copy-on-reference migration names that process. The pager
// once carried PID zero.
func TestCopyOnReferenceFetchNamesTheProcess(t *testing.T) {
	c := newCluster(t, 2)
	c.SetStrategyAll(CopyOnReferenceStrategy{})
	src, dst := c.Workstation(0), c.Workstation(1)
	var pids []PID
	kFetchPage.Handle(src.ep, func(env *sim.Env, from rpc.HostID, a fetchPageArgs) (struct{}, int, error) {
		pids = append(pids, a.PID)
		return src.handleFetchPage(env, from, a)
	})
	var want PID
	c.Boot("boot", func(env *sim.Env) error {
		p, err := src.StartProcess(env, "cor", func(ctx *Ctx) error {
			if err := ctx.TouchHeap(0, smallProc.HeapPages, true); err != nil {
				return err
			}
			if err := ctx.Migrate(dst.Host()); err != nil {
				return err
			}
			return ctx.TouchHeap(0, smallProc.HeapPages, false)
		}, smallProc)
		if err != nil {
			return err
		}
		want = p.PID()
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if len(pids) < smallProc.HeapPages {
		t.Fatalf("%d page fetches, want at least %d", len(pids), smallProc.HeapPages)
	}
	for _, pid := range pids {
		if pid != want {
			t.Fatalf("fetchPage named %v, want %v", pid, want)
		}
	}
}

// TestTargetPagersAllocateNothing: installing the target's pager costs no
// object under any strategy — FilePager travels by value, the readahead
// pager is the target kernel's and the copy-on-reference pager is the
// process's own.
func TestTargetPagersAllocateNothing(t *testing.T) {
	c := newCluster(t, 2)
	src, dst := c.Workstation(0), c.Workstation(1)
	p := &Process{pid: PID{Home: src.Host(), Seq: 7}}
	var pager vm.Pager
	for _, s := range allStrategies {
		if a := testing.AllocsPerRun(100, func() { pager = s.TargetPager(src, dst, p) }); !raceEnabled {
			t.Logf("%s: TargetPager allocates %v objects", s.Name(), a)
			allocs.Check(t, "core.target_pager", a)
		}
		if cp, ok := pager.(*corPager); ok && (cp.pid != p.pid || cp.src != src || cp.dst != dst) {
			t.Errorf("%s: pager %+v, want pid %v from %v to %v", s.Name(), *cp, p.pid, src.Host(), dst.Host())
		}
	}
}
