package fs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sprite/internal/sim"
)

// refLRU is the reference block cache: keys front (most recently used)
// first, and the dirty ones.
type refLRU struct {
	keys  []cacheKey
	dirty map[cacheKey]bool
}

// touch makes k the most recently used key.
func (m *refLRU) touch(k cacheKey) {
	if i := slices.Index(m.keys, k); i >= 0 {
		m.keys = slices.Delete(m.keys, i, i+1)
	}
	m.keys = slices.Insert(m.keys, 0, k)
}

// evict drops keys from the back down to capacity and returns how many of
// them were dirty.
func (m *refLRU) evict(capacity int) (dropped, dirty int) {
	for len(m.keys) > capacity {
		k := m.keys[len(m.keys)-1]
		m.keys = m.keys[:len(m.keys)-1]
		if m.dirty[k] {
			dirty++
		}
		delete(m.dirty, k)
		dropped++
	}
	return dropped, dirty
}

// drop removes every key for which gone reports true.
func (m *refLRU) drop(gone func(cacheKey) bool) {
	m.keys = slices.DeleteFunc(m.keys, func(k cacheKey) bool {
		if gone(k) {
			delete(m.dirty, k)
			return true
		}
		return false
	})
}

// TestLRUAgainstModel drives one client's block cache, at a capacity of 8
// blocks over two 16-block files, through random read misses and hits,
// full-block cached writes, FlushFile, a version change (which drops the
// file), DropCaches and the evictions these force, and compares it after
// every step with a reference LRU: the ring's order front to back and each
// block's dirty bit, CachedBlocks, DirtyBlocks, and a clean
// CheckInvariants.
func TestLRUAgainstModel(t *testing.T) {
	const capacity, fileBlocks, ops = 8, 16, 400
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			params := DefaultParams()
			params.ClientCacheBlocks = capacity
			bs := params.BlockSize
			h := newHarnessWith(t, 1, params)
			c := h.fs.Client(2)
			paths := [2]string{"/a", "/b"}
			for _, path := range paths {
				if _, err := h.fs.SeedSized(path, fileBlocks*bs, false); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(seed))
			model := refLRU{dirty: map[cacheKey]bool{}}
			evictions, dirtyEvictions := 0, 0
			block := make([]byte, bs)
			check := func(step int, op string) bool {
				t.Helper()
				var got []cacheKey
				for b := c.lru.next; b != &c.lru && len(got) <= capacity; b = b.next {
					got = append(got, b.key)
					if b.dirty != model.dirty[b.key] {
						t.Errorf("step %d (%s): block %v dirty=%v, model %v", step, op, b.key, b.dirty, model.dirty[b.key])
					}
				}
				if !slices.Equal(got, model.keys) {
					t.Errorf("step %d (%s): LRU ring %v, model %v", step, op, got, model.keys)
				}
				if c.CachedBlocks() != len(model.keys) || c.DirtyBlocks() != len(model.dirty) {
					t.Errorf("step %d (%s): %d cached, %d dirty; model %d, %d", step, op,
						c.CachedBlocks(), c.DirtyBlocks(), len(model.keys), len(model.dirty))
				}
				if v := h.fs.CheckInvariants(false); len(v) > 0 {
					t.Errorf("step %d (%s): invariants: %v", step, op, v)
				}
				return !t.Failed()
			}
			h.run(t, func(env *sim.Env) error {
				var sts [2]*Stream
				for i, path := range paths {
					st, err := c.Open(env, path, ReadWriteMode, OpenOptions{})
					if err != nil {
						return err
					}
					sts[i] = st
				}
				for step := 0; step < ops; step++ {
					f := rng.Intn(2)
					st := sts[f]
					key := cacheKey{fid: st.FID, block: rng.Intn(fileBlocks)}
					var op string
					switch r := rng.Intn(20); {
					case r < 10:
						op = "read"
						if _, err := c.ReadCountAt(env, st, int64(key.block*bs), bs); err != nil {
							return err
						}
						model.touch(key)
					case r < 16:
						op = "write"
						if err := c.WriteAt(env, st, int64(key.block*bs), block); err != nil {
							return err
						}
						model.touch(key)
						model.dirty[key] = true
					case r < 18:
						op = "flush"
						if err := c.FlushFile(env, st.FID); err != nil {
							return err
						}
						for k := range model.dirty {
							if k.fid == st.FID {
								delete(model.dirty, k)
							}
						}
					case r < 19:
						op = "version change"
						c.noteVersion(st.FID, c.files[st.FID].ver+1, true)
						model.drop(func(k cacheKey) bool { return k.fid == st.FID })
					default:
						op = "drop caches"
						c.DropCaches()
						model.drop(func(k cacheKey) bool { return !model.dirty[k] })
					}
					n, d := model.evict(capacity)
					evictions += n
					dirtyEvictions += d
					if !check(step, op) {
						return nil
					}
				}
				for _, st := range sts {
					if err := c.Close(env, st); err != nil {
						return err
					}
				}
				return nil
			})
			if !t.Failed() && (evictions == 0 || dirtyEvictions == 0) {
				t.Errorf("%d evictions, %d of them dirty: the sequence never exercised both", evictions, dirtyEvictions)
			}
		})
	}
}
