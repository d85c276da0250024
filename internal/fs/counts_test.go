package fs

import (
	"bytes"
	"strings"
	"testing"

	"sprite/internal/allocs"
	"sprite/internal/metrics"
	"sprite/internal/sim"
)

// TestCountedCallsAllocateNothing pins the content-free calls' cost on a
// warm cache: a cached ReadCount and a cached WriteZeros allocate nothing.
func TestCountedCallsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	const n = 2 * 4096
	if _, err := h.fs.Seed("/warm", bytes.Repeat([]byte{3}, n), false); err != nil {
		t.Fatal(err)
	}
	h.run(t, func(env *sim.Env) error {
		st, err := c.Open(env, "/warm", ReadWriteMode, OpenOptions{})
		if err != nil {
			return err
		}
		readCount := func() {
			if err := c.Seek(env, st, 0); err != nil {
				t.Error(err)
			}
			if got, err := c.ReadCount(env, st, n); err != nil || got != n {
				t.Errorf("ReadCount = %d, %v; want %d", got, err, n)
			}
		}
		writeZeros := func() {
			if err := c.Seek(env, st, 0); err != nil {
				t.Error(err)
			}
			if got, err := c.WriteZeros(env, st, n); err != nil || got != n {
				t.Errorf("WriteZeros = %d, %v; want %d", got, err, n)
			}
		}
		readCount() // warm the cache
		allocs.Check(t, "fs.read_count", testing.AllocsPerRun(100, readCount))
		allocs.Check(t, "fs.write_zeros", testing.AllocsPerRun(100, writeZeros))
		return c.Close(env, st)
	})
}

// TestStatAllocatesNothing pins a stat's cost: the fs.stat call passes its
// argument and reply by value through its typed descriptor, so a Stat
// allocates nothing on the client, the wire or the server.
func TestStatAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	if _, err := h.fs.Seed("/d/file", bytes.Repeat([]byte{1}, 100), false); err != nil {
		t.Fatal(err)
	}
	h.run(t, func(env *sim.Env) error {
		stat := func() {
			if _, size, err := c.Stat(env, "/d/file"); err != nil || size != 100 {
				t.Errorf("Stat = %d, %v; want size 100", size, err)
			}
		}
		stat() // warm the server's stats table and the client's prefix cache
		allocs.Check(t, "fs.stat", testing.AllocsPerRun(100, stat))
		return nil
	})
}

// readCounters names the fabric counters a client's reads move.
var readCounters = []string{"fs.cache.hits", "fs.cache.misses", "fs.bytes.read", "fs.prefix.queries"}

// readCounts reads readCounters from reg.
func readCounts(reg *metrics.Registry) (out [4]int64) {
	for i, name := range readCounters {
		out[i] = reg.Counter(name).Value()
	}
	return out
}

// TestReadCountAtMatchesReadAt checks the paging path's counting read
// against ReadAt: on a cold and then a warm cache, both return the same
// count and move the fabric's read counters the same way, and a warm
// ReadCountAt allocates nothing.
func TestReadCountAtMatchesReadAt(t *testing.T) {
	const n = 2*4096 + 100
	run := func(counting bool) (got []int, counts [][4]int64, warmAllocs float64) {
		h := newHarness(t, 1)
		reg := metrics.New()
		h.fs.SetMetrics(reg)
		c := h.fs.Client(2)
		if _, err := h.fs.Seed("/swap", bytes.Repeat([]byte{7}, n), false); err != nil {
			t.Fatal(err)
		}
		h.run(t, func(env *sim.Env) error {
			st, err := c.Open(env, "/swap", ReadMode, OpenOptions{})
			if err != nil {
				return err
			}
			read := func() {
				var k int
				if counting {
					k, err = c.ReadCountAt(env, st, 4000, 4096)
				} else {
					var data []byte
					data, err = c.ReadAt(env, st, 4000, 4096)
					k = len(data)
				}
				if err != nil {
					t.Error(err)
				}
				got = append(got, k)
				counts = append(counts, readCounts(reg))
			}
			read() // cold
			read() // warm
			if counting && !raceEnabled {
				warmAllocs = testing.AllocsPerRun(100, read)
			}
			return c.Close(env, st)
		})
		return got[:2], counts[:2], warmAllocs
	}
	gotAt, countsAt, _ := run(false)
	gotCount, countsCount, warm := run(true)
	for i := range gotAt {
		if gotCount[i] != gotAt[i] || countsCount[i] != countsAt[i] {
			t.Errorf("read %d: ReadCountAt = %d with %v %v; ReadAt read %d with %v",
				i, gotCount[i], readCounters, countsCount[i], gotAt[i], countsAt[i])
		}
	}
	if !raceEnabled {
		allocs.Check(t, "fs.read_count_at", warm)
	}
}

// TestRecalledZerosStoreNothing writes a file only through WriteZeros,
// recalls it to the server by opening it on another host, and checks the
// server holds its length and no bytes — while the other host reads zeros.
func TestRecalledZerosStoreNothing(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.fs.Client(2), h.fs.Client(3)
	const n = 3*4096 + 100
	h.run(t, func(env *sim.Env) error {
		st, err := a.Open(env, "/zeros", WriteMode, OpenOptions{Create: true})
		if err != nil {
			return err
		}
		if _, err := a.WriteZeros(env, st, n); err != nil {
			return err
		}
		if err := a.Close(env, st); err != nil {
			return err
		}
		if a.DirtyBlocks() == 0 {
			t.Error("want the zeros dirty in the writer's cache before the recall")
		}
		got, err := b.ReadFile(env, "/zeros")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, make([]byte, n)) {
			t.Errorf("other host reads %d bytes (first non-zero at %d), want %d zeros", len(got), bytes.IndexFunc(got, func(r rune) bool { return r != 0 }), n)
		}
		return nil
	})
	if h.srv.Stats().FlushRecall == 0 {
		t.Error("want a flush recall")
	}
	fl := h.srv.files["/zeros"]
	if fl.size != n || len(fl.data) != 0 {
		t.Errorf("server file: size %d with %d stored bytes, want size %d with none", fl.size, len(fl.data), n)
	}
}

// TestCheckInvariantsCatchesDirtyCountDrift checks that the per-file dirty
// count is audited against the cache it summarizes.
func TestCheckInvariantsCatchesDirtyCountDrift(t *testing.T) {
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	h.run(t, func(env *sim.Env) error {
		return c.WriteFile(env, "/d", make([]byte, 3*4096))
	})
	if v := h.fs.CheckInvariants(false); len(v) != 0 {
		t.Fatalf("clean cache reports %v", v)
	}
	for fid := range c.dirty {
		c.dirty[fid]++
	}
	if v := h.fs.CheckInvariants(false); len(v) != 1 || !strings.Contains(v[0], "dirty counts") {
		t.Errorf("drifted count reports %v, want one dirty-count violation", v)
	}
}

// TestOpenCloseAllocatesOneObject pins a warm Open+Close pair at one
// object, the Stream: its first owner lives in the Stream itself. With the
// owners held in a map the pair allocated 3.
func TestOpenCloseAllocatesOneObject(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	if _, err := h.fs.Seed("/d/file", []byte("data"), false); err != nil {
		t.Fatal(err)
	}
	h.run(t, func(env *sim.Env) error {
		openClose := func() {
			st, err := c.Open(env, "/d/file", ReadMode, OpenOptions{})
			if err == nil {
				err = c.Close(env, st)
			}
			if err != nil {
				t.Error(err)
			}
		}
		openClose() // warm the prefix cache and the server's tables
		allocs.Check(t, "fs.open_close", testing.AllocsPerRun(100, openClose))
		return nil
	})
}

// TestZeroBlockMissAllocatesOneObject pins a cache miss on a block of zeros
// at one object, the cacheBlock: the block links itself into the LRU ring.
// With a container/list element per block the miss allocated 2.
func TestZeroBlockMissAllocatesOneObject(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	if _, err := h.fs.SeedSized("/hole", 4096, false); err != nil {
		t.Fatal(err)
	}
	h.run(t, func(env *sim.Env) error {
		st, err := c.Open(env, "/hole", ReadMode, OpenOptions{})
		if err != nil {
			return err
		}
		miss := func() {
			c.DropCaches()
			if n, err := c.ReadCountAt(env, st, 0, 4096); err != nil || n != 4096 || c.CachedBlocks() != 1 {
				t.Errorf("ReadCountAt = %d, %v with %d blocks cached; want 4096 and 1", n, err, c.CachedBlocks())
			}
		}
		miss() // warm the server's tables
		allocs.Check(t, "fs.zero_block_miss", testing.AllocsPerRun(100, miss))
		return c.Close(env, st)
	})
}
