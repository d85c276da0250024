package vm

import (
	"testing"

	"sprite/internal/sim"
)

func TestFlushDirtyBulkCoalescesAndClears(t *testing.T) {
	h := newHarness(t)
	h.run(t, func(env *sim.Env) error {
		as := newSpace(t, env, h, "p1", 16)
		// Two dirty extents with a gap: pages 0-5 and 8-11.
		for _, i := range []int{0, 1, 2, 3, 4, 5, 8, 9, 10, 11} {
			if err := as.Touch(env, as.Heap, i, true); err != nil {
				return err
			}
		}
		n, bs, err := as.FlushDirtyBulk(env, h.fs.Client(2), 4)
		if err != nil {
			return err
		}
		if n != 10 || as.DirtyPages() != 0 {
			t.Fatalf("flushed %d pages, %d still dirty", n, as.DirtyPages())
		}
		// The 6-page extent splits at maxRunPages=4 into 4+2; the 4-page
		// extent ships whole: three bulk calls for ten pages.
		if bs.Calls != 3 {
			t.Errorf("bulk calls = %d, want 3", bs.Calls)
		}
		if want := 10 * as.Params().PageSize; bs.Bytes != want {
			t.Errorf("bulk bytes = %d, want %d", bs.Bytes, want)
		}
		if as.Stats().PageOuts != 10 {
			t.Errorf("page-outs = %d, want 10", as.Stats().PageOuts)
		}
		return nil
	})
}

func TestReadaheadPagerFillsRuns(t *testing.T) {
	h := newHarness(t)
	h.run(t, func(env *sim.Env) error {
		as := newSpace(t, env, h, "p1", 16)
		for i := 0; i < 16; i++ {
			if err := as.Touch(env, as.Heap, i, true); err != nil {
				return err
			}
		}
		// Flush so the backing store has every page, then drop the resident
		// set — the state of a freshly migrated process under sprite-flush.
		if _, _, err := as.FlushDirtyBulk(env, h.fs.Client(2), 0); err != nil {
			return err
		}
		as.Heap.InvalidateAll()
		as.Heap.SetPager(&ReadaheadPager{Client: h.fs.Client(2), Window: 4})

		faults0 := as.Stats().Faults
		if err := as.Touch(env, as.Heap, 0, false); err != nil {
			return err
		}
		for i := 0; i < 4; i++ {
			if !as.Heap.Resident(i) {
				t.Fatalf("page %d not resident after readahead fault", i)
			}
		}
		if as.Heap.Resident(4) {
			t.Fatal("page 4 resident beyond the readahead window")
		}
		if got := as.Stats().Prefetched; got != 3 {
			t.Errorf("prefetched = %d, want 3", got)
		}
		// The prefetched pages must not fault again.
		for i := 1; i < 4; i++ {
			if err := as.Touch(env, as.Heap, i, false); err != nil {
				return err
			}
		}
		if got := as.Stats().Faults - faults0; got != 1 {
			t.Errorf("faults = %d for 4 touches, want 1", got)
		}
		// A run stops early at an already-resident page.
		as.Heap.MarkResident(6, false)
		if err := as.Touch(env, as.Heap, 4, false); err != nil {
			return err
		}
		if !as.Heap.Resident(5) || as.Heap.Resident(7) {
			t.Errorf("run after resident page: 5=%v 7=%v, want true,false",
				as.Heap.Resident(5), as.Heap.Resident(7))
		}
		return nil
	})
}
