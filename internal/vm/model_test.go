package vm

import (
	"fmt"
	"math/rand"
	"testing"

	"sprite/internal/sim"
)

// refSegment is the reference model: two bitmaps.
type refSegment struct {
	resident []bool
	dirty    []bool
}

func (r *refSegment) touch(i int, write bool) {
	r.resident[i] = true
	if write {
		r.dirty[i] = true
	}
}

func (r *refSegment) flush() int {
	n := 0
	for i, d := range r.dirty {
		if d {
			r.dirty[i] = false
			n++
		}
	}
	return n
}

func (r *refSegment) invalidate() {
	for i := range r.resident {
		r.resident[i] = false
		r.dirty[i] = false
	}
}

func count(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// TestModelRandomTouchSequences drives random touch/flush/invalidate
// sequences against an address space and the reference bitmaps; resident
// and dirty counts must agree at every step.
func TestModelRandomTouchSequences(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			h := newHarness(t)
			h.run(t, func(env *sim.Env) error {
				const pages = 64
				as, err := New(env, h.fs.Client(2), fmt.Sprintf("m%d", seed), Config{
					HeapPages:  pages,
					StackPages: 0,
					CodePages:  0,
				}, DefaultParams())
				if err != nil {
					return err
				}
				ref := &refSegment{resident: make([]bool, pages), dirty: make([]bool, pages)}
				rng := rand.New(rand.NewSource(seed))
				for op := 0; op < 400; op++ {
					switch rng.Intn(10) {
					case 0: // flush
						want := ref.flush()
						got, _, err := as.FlushDirtyBulk(env, h.fs.Client(2), 0)
						if err != nil {
							return err
						}
						if got != want {
							return fmt.Errorf("op %d: flushed %d, want %d", op, got, want)
						}
					case 1: // invalidate (migration arrival)
						as.Heap.InvalidateAll()
						ref.invalidate()
					default:
						i := rng.Intn(pages)
						write := rng.Intn(2) == 0
						if err := as.Touch(env, as.Heap, i, write); err != nil {
							return err
						}
						ref.touch(i, write)
					}
					if as.Heap.ResidentCount() != count(ref.resident) {
						return fmt.Errorf("op %d: resident %d, want %d", op, as.Heap.ResidentCount(), count(ref.resident))
					}
					if as.Heap.DirtyCount() != count(ref.dirty) {
						return fmt.Errorf("op %d: dirty %d, want %d", op, as.Heap.DirtyCount(), count(ref.dirty))
					}
				}
				return nil
			})
		})
	}
}

// Property: a flush after n dirtying touches writes exactly the number of
// distinct dirtied pages, and a second flush writes zero.
func TestFlushIdempotent(t *testing.T) {
	h := newHarness(t)
	h.run(t, func(env *sim.Env) error {
		as, err := New(env, h.fs.Client(2), "idem", Config{HeapPages: 32}, DefaultParams())
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(9))
		distinct := map[int]bool{}
		for i := 0; i < 50; i++ {
			p := rng.Intn(32)
			distinct[p] = true
			if err := as.Touch(env, as.Heap, p, true); err != nil {
				return err
			}
		}
		n1, _, err := as.FlushDirtyBulk(env, h.fs.Client(2), 0)
		if err != nil {
			return err
		}
		if n1 != len(distinct) {
			return fmt.Errorf("first flush %d, want %d", n1, len(distinct))
		}
		n2, _, err := as.FlushDirtyBulk(env, h.fs.Client(2), 0)
		if err != nil {
			return err
		}
		if n2 != 0 {
			return fmt.Errorf("second flush %d, want 0", n2)
		}
		return nil
	})
}
