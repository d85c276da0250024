package fs

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"sprite/internal/sim"
)

// checkCache fails unless c holds dirty blocks as dirty says and the file
// system's invariants, one block per key among them, hold.
func checkCache(f *FS, c *Client, dirty int) error {
	if c.DirtyBlocks() != dirty {
		return fmt.Errorf("%v holds %d dirty blocks, want %d", c.Host(), c.DirtyBlocks(), dirty)
	}
	if v := f.CheckInvariants(false); len(v) > 0 {
		return fmt.Errorf("invariant: %s", v[0])
	}
	return nil
}

// readBlock0 reads /f's first block through c.
func readBlock0(env *sim.Env, c *Client) ([]byte, error) {
	st, err := c.Open(env, "/f", ReadMode, OpenOptions{})
	if err != nil {
		return nil, err
	}
	got, err := c.ReadAt(env, st, 0, 4096)
	if err != nil {
		return nil, err
	}
	return got, c.Close(env, st)
}

// TestReadMissKeepsConcurrentWrite: a read miss blocked in fs.read must not
// replace the block a full-block write on the same host cached meanwhile.
// The reply is older than that write, and a second block for the key would
// hide it from reads, flushes and recalls.
func TestReadMissKeepsConcurrentWrite(t *testing.T) {
	const bs = 4096
	h := newHarness(t, 2)
	c, other := h.fs.Client(2), h.fs.Client(3)
	want := bytes.Repeat([]byte("b"), bs)
	h.run(t, func(env *sim.Env) error {
		if err := other.WriteFile(env, "/f", bytes.Repeat([]byte("a"), bs)); err != nil {
			return err
		}
		st, err := c.Open(env, "/f", ReadWriteMode, OpenOptions{})
		if err != nil {
			return err
		}
		wg := sim.NewWaitGroup()
		wg.Add(1)
		env.Spawn("reader", func(env *sim.Env) error {
			defer wg.Done()
			_, err := c.ReadAt(env, st, 0, bs)
			return err
		})
		if err := env.Sleep(10 * time.Microsecond); err != nil {
			return err
		}
		if err := c.WriteAt(env, st, 0, want); err != nil {
			return err
		}
		if err := wg.Wait(env); err != nil {
			return err
		}
		got, err := c.ReadAt(env, st, 0, bs)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("host2 reads %.4q… after its own write of %.4q…", got, want)
		}
		if err := checkCache(h.fs, c, 1); err != nil {
			return err
		}
		return c.Close(env, st)
	})
}

// TestEvictionFlushKeepsConcurrentWrite: a write that lands on a block
// while its eviction write-back is in flight must survive. The write-back
// carried older bytes, so the block stays dirty and cached. The delays
// straddle the window between the server storing the write-back and its
// reply reaching the client.
func TestEvictionFlushKeepsConcurrentWrite(t *testing.T) {
	const bs = 4096
	for _, delay := range []time.Duration{6 * time.Millisecond, 6300 * time.Microsecond, 7 * time.Millisecond} {
		t.Run(delay.String(), func(t *testing.T) {
			params := DefaultParams()
			params.ClientCacheBlocks = 2
			h := newHarnessWith(t, 2, params)
			c, other := h.fs.Client(2), h.fs.Client(3)
			want := bytes.Repeat([]byte("c"), bs)
			h.run(t, func(env *sim.Env) error {
				st, err := c.Open(env, "/f", ReadWriteMode, OpenOptions{Create: true})
				if err != nil {
					return err
				}
				if err := c.WriteAt(env, st, 0, bytes.Repeat([]byte("a"), 2*bs)); err != nil {
					return err
				}
				wg := sim.NewWaitGroup()
				wg.Add(1)
				env.Spawn("evictor", func(env *sim.Env) error {
					defer wg.Done()
					return c.WriteAt(env, st, 2*bs, bytes.Repeat([]byte("x"), bs))
				})
				if err := env.Sleep(delay); err != nil {
					return err
				}
				if err := c.WriteAt(env, st, 0, want); err != nil {
					return err
				}
				if err := wg.Wait(env); err != nil {
					return err
				}
				if err := c.Close(env, st); err != nil {
					return err
				}
				for _, reader := range []*Client{c, other} {
					got, err := readBlock0(env, reader)
					if err != nil {
						return err
					}
					if !bytes.Equal(got, want) {
						return fmt.Errorf("%v reads %.4q… after host2 wrote %.4q…", reader.Host(), got, want)
					}
				}
				return checkCache(h.fs, c, 0)
			})
		})
	}
}
