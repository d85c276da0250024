package core

import (
	"runtime"
	"testing"
	"time"

	"sprite/internal/fs"
	"sprite/internal/sim"
	"sprite/internal/trace"
	"sprite/internal/vm"
)

// TestSpriteFlushMovesPagesAsCounts is the allocation budget of Sprite's own
// VM transfer: flushing a 512-page fully dirty heap to the backing file and
// demand-paging all of it back on the target moves 4 MB on the simulated
// wire and must not move it through the host's heap — page contents are not
// modelled, so the flush, the server's swap file and the readahead fills are
// lengths. Carrying the pages as bytes cost 23 MB here; the budget is
// 256 KiB, measured the way benchmark/measure.go measures alloc_mb_per_iter.
// The swap file's size is checked too, so cheap cannot mean unwritten.
func TestSpriteFlushMovesPagesAsCounts(t *testing.T) {
	const heapPages, budget = 512, 256 << 10
	c := newCluster(t, 2)
	src, dst := c.Workstation(0), c.Workstation(1)
	var allocated uint64
	var swapSize int
	c.Boot("boot", func(env *sim.Env) error {
		p, err := src.StartProcess(env, "big", func(ctx *Ctx) error {
			if err := ctx.TouchHeap(0, heapPages, true); err != nil {
				return err
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if err := ctx.Migrate(dst.Host()); err != nil {
				return err
			}
			if err := ctx.TouchHeap(0, heapPages, false); err != nil {
				return err
			}
			runtime.ReadMemStats(&m1)
			allocated = m1.TotalAlloc - m0.TotalAlloc
			var err error
			swapSize, err = ctx.Stat(ctx.proc.space.Heap.Backing.Path)
			return err
		}, ProcConfig{Binary: "/bin/prog", CodePages: 4, HeapPages: heapPages, StackPages: 2})
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if want := heapPages * src.params.VM.PageSize; swapSize != want {
		t.Errorf("swap file is %d bytes after the flush, want %d", swapSize, want)
	}
	if recs := c.MigrationRecords(); len(recs) != 1 || recs[0].PagesFlushed != heapPages {
		t.Errorf("migration records = %+v, want one flushing %d pages", recs, heapPages)
	}
	if raceEnabled {
		t.Skip("allocation bytes are meaningless under -race")
	}
	t.Logf("migrate + re-touch of %d pages allocated %d bytes", heapPages, allocated)
	if allocated > budget {
		t.Errorf("migrate + re-touch of %d pages allocated %d bytes, budget %d", heapPages, allocated, budget)
	}
}

// TestUntracedRunFormatsNoTraceDetails: emitting a trace event costs no
// allocation, with or without a sink; only a sink that renders formats
// anything. Sixteen processes start, migrate and exit, untraced and into a
// sink that keeps nothing, and the traced run must allocate no more objects
// than the untraced one. Each side counts its least of three runs: the
// process-wide counter now and then picks up a runtime allocation or two.
// The runs stay on the serial kernel, since the parallel one picks its
// dispatch regime by timing on the host clock and so allocates a little
// differently from run to run.
func TestUntracedRunFormatsNoTraceDetails(t *testing.T) {
	t.Setenv("SPRITE_SIM_PARALLEL", "")
	const procs = 16
	run := func(sink func(trace.Event)) uint64 {
		c := newCluster(t, 2)
		c.SetTrace(sink)
		dst := c.Workstation(1)
		c.Boot("boot", func(env *sim.Env) error {
			for i := 0; i < procs; i++ {
				p, err := c.Workstation(0).StartProcess(env, "hop", func(ctx *Ctx) error {
					return ctx.Migrate(dst.Host())
				}, smallProc)
				if err != nil {
					return err
				}
				if _, err := p.Exited().Wait(env); err != nil {
					return err
				}
			}
			return nil
		})
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		runCluster(t, c)
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	least := func(sink func(trace.Event)) uint64 {
		return min(run(sink), run(sink), run(sink))
	}
	events := 0
	run(func(trace.Event) { events++ }) // first-run costs (runtime caches, pools) land here
	if events != 3*procs {
		t.Fatalf("sink saw %d events, want a start, a migration and an exit for each of %d processes", events, procs)
	}
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	untraced, traced := least(nil), least(func(trace.Event) {})
	t.Logf("%d events: %d objects traced, %d untraced", events, traced, untraced)
	if traced > untraced {
		t.Errorf("traced run allocated %d objects, untraced %d: emitting %d events into a sink that keeps nothing allocated", traced, untraced, events)
	}
}

// TestMigMeterAllocatesNothing: metering one migration — started, the five
// phase boundaries, completed, the record's totals — builds no name and
// heap-allocates no per-phase object once the registry holds the timings.
func TestMigMeterAllocatesNothing(t *testing.T) {
	c := newCluster(t, 2)
	rec := MigrationRecord{Strategy: SpriteFlushStrategy{}.Name(), Total: time.Millisecond, Freeze: time.Millisecond}
	var allocs float64
	c.Boot("boot", func(env *sim.Env) error {
		lifecycle := func() {
			mm := newMigMeter(env, c.metrics, rec.Strategy)
			for _, ph := range []*migPhase{phaseNegotiate, mm.names.vm, phaseStreams, phasePCB, phaseResume} {
				mm.next(env, ph)
			}
			mm.complete(env)
			mm.observeTotals(env, &rec)
		}
		lifecycle()
		allocs = testing.AllocsPerRun(100, lifecycle)
		return nil
	})
	runCluster(t, c)
	if allocs != 0 {
		t.Errorf("one migMeter lifecycle allocated %v objects, want 0", allocs)
	}
}

// TestBuildSpaceInstallsNoPager: building a process's address space costs
// what vm.New costs plus three objects: the pid's string, the space's name
// built from it and the CPU-charge closure. vm.New already installs a
// FilePager on the process's client, so buildSpace adds none of its own.
func TestBuildSpaceInstallsNoPager(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	c := newCluster(t, 1)
	var vmNew, build float64
	c.Boot("boot", func(env *sim.Env) error {
		p, err := c.Workstation(0).StartProcess(env, "p", func(ctx *Ctx) error {
			p := ctx.proc
			closeAll := func(as *vm.AddressSpace) {
				for _, seg := range as.Segments() {
					if err := p.cur.fsc.Close(ctx.env, seg.Backing); err != nil {
						t.Error(err)
					}
				}
			}
			orig := p.space
			vmNew = testing.AllocsPerRun(50, func() {
				as, err := vm.New(ctx.env, p.cur.fsc, "other", vm.Config{
					CodePages: smallProc.CodePages, HeapPages: smallProc.HeapPages,
					StackPages: smallProc.StackPages, BinaryPath: smallProc.Binary,
				}, p.cur.params.VM)
				if err != nil {
					t.Fatal(err)
				}
				closeAll(as)
			})
			build = testing.AllocsPerRun(50, func() {
				if err := p.buildSpace(ctx.env, p.name, smallProc); err != nil {
					t.Fatal(err)
				}
				closeAll(p.space)
			})
			p.space = orig
			return nil
		}, smallProc)
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if build != vmNew+3 {
		t.Errorf("buildSpace allocates %v objects, vm.New %v: want vm.New's plus 3", build, vmNew)
	}
}

// hopAllocs runs one process, which opens a file, under strategy: two
// warm-up hops between two workstations, then hops more, of which it
// returns the objects allocated per hop. atExec makes every hop an
// exec-time migration (after the first discards the image, there is no
// address space to move).
func hopAllocs(t *testing.T, strategy TransferStrategy, atExec bool, hops int) float64 {
	t.Helper()
	c := newCluster(t, 2)
	c.SetStrategyAll(strategy)
	ws := [2]*Kernel{c.Workstation(0), c.Workstation(1)}
	var mallocs uint64
	c.Boot("boot", func(env *sim.Env) error {
		p, err := ws[0].StartProcess(env, "hop", func(ctx *Ctx) error {
			if _, err := ctx.Open("/bin/prog", fs.ReadMode, fs.OpenOptions{}); err != nil {
				return err
			}
			var m0, m1 runtime.MemStats
			for i := 0; i < 2+hops; i++ {
				req := &migrationRequest{target: ws[(i+1)%2], atExec: atExec, reason: "hop"}
				if !atExec {
					if err := ctx.TouchHeap(0, smallProc.HeapPages, true); err != nil {
						return err
					}
				}
				runtime.ReadMemStats(&m0)
				if err := ctx.performMigration(req); err != nil {
					return err
				}
				runtime.ReadMemStats(&m1)
				if i >= 2 {
					mallocs += m1.Mallocs - m0.Mallocs
				}
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
	if n := len(c.MigrationRecords()); n != 2+hops {
		t.Fatalf("%s: %d migration records, want %d", strategy.Name(), n, 2+hops)
	}
	return float64(mallocs) / float64(hops)
}

// TestMigrationAllocations: a warm migration hop allocates its stream
// mover's activity and little else. Sixteen hops of a process with an open
// file between two workstations average at most 2.5 objects under every
// strategy (about 1.5: the activity, plus the kernels' record lists
// growing). Building the record, the mover's name, body and join and the
// target pager on every hop cost 7.5 objects here, 8.5 under
// copy-on-reference (7.8 and 8.8 per op on the benchmark's ladder). An
// exec-time hop, which moves the streams inline,
// averages at most one object (0.5, the record lists again; 1.5 when the
// record escaped to the heap).
func TestMigrationAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, s := range allStrategies {
		if a := hopAllocs(t, s, false, 16); a > 2.5 {
			t.Errorf("%s: a warm hop allocates %.2f objects, want at most 2.5", s.Name(), a)
		}
	}
	if a := hopAllocs(t, SpriteFlushStrategy{}, true, 16); a > 1 {
		t.Errorf("a warm exec-time hop allocates %.2f objects, want at most 1", a)
	}
}
