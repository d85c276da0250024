package core

import (
	"runtime"
	"testing"

	"sprite/internal/sim"
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
