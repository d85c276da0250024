package fs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sprite/internal/metrics"
	"sprite/internal/netsim"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// swapPath is the model tests' never-cached file.
const swapPath = "/swap"

// modelFile is the reference implementation: a flat byte slice.
type modelFile struct {
	data []byte
}

func (m *modelFile) writeAt(off int64, p []byte) {
	need := int(off) + len(p)
	if need > len(m.data) {
		grown := make([]byte, need)
		copy(grown, m.data)
		m.data = grown
	}
	copy(m.data[off:], p)
}

// writeRuns applies a scatter-gather write; a zero run writes its zeros.
func (m *modelFile) writeRuns(runs []PageRun) {
	for _, r := range runs {
		data := r.Data
		if data == nil {
			data = make([]byte, r.Zeros)
		}
		m.writeAt(r.Off, data)
	}
}

// setSize truncates or zero-extends the file to n bytes.
func (m *modelFile) setSize(n int) {
	if n <= len(m.data) {
		m.data = m.data[:n]
		return
	}
	m.writeAt(int64(n), nil)
}

func (m *modelFile) readAt(off int64, n int) []byte {
	if off >= int64(len(m.data)) {
		return nil
	}
	hi := int(off) + n
	if hi > len(m.data) {
		hi = len(m.data)
	}
	out := make([]byte, hi-int(off))
	copy(out, m.data[off:hi])
	return out
}

// TestModelRandomOpsSingleClient drives a random sequence of stream
// operations against one client and checks every read against the
// reference model. Runs several seeds; each run is deterministic.
func TestModelRandomOpsSingleClient(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runModelTest(t, seed, 1, 300)
		})
	}
}

// TestModelRandomOpsTwoClients alternates operations between two hosts.
// Reads go through open/close cycles so Sprite's consistency machinery
// (recall, disable, versioning) is constantly exercised; every read must
// still match the reference model.
func TestModelRandomOpsTwoClients(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runModelTest(t, seed, 2, 200)
		})
	}
}

func runModelTest(t *testing.T, seed int64, nClients, ops int) {
	t.Helper()
	s := sim.New(seed)
	net := netsim.New(s, netsim.DefaultParams())
	tr := rpc.NewTransport(s, net, rpc.DefaultParams())
	params := DefaultParams()
	params.ClientCacheBlocks = 8 // small cache: force evictions
	f := New(s, tr, params)
	f.AddServer(1, "/")
	clients := make([]*Client, nClients)
	for i := range clients {
		clients[i] = f.AddClient(rpc.HostID(2 + i))
	}
	rng := rand.New(rand.NewSource(seed))
	model := map[string]*modelFile{}
	paths := []string{"/a", "/b", "/c", swapPath}
	// Two files start as SeedSized holes — a size with nothing stored — so
	// byte writes land inside a hole. The swap file is never client-cached:
	// every operation on it reaches the server's sparse file directly, batch
	// writes by bulk transfer.
	for _, path := range []string{"/b", swapPath} {
		size := rng.Intn(40000)
		if _, err := f.SeedSized(path, size, path == swapPath); err != nil {
			t.Fatal(err)
		}
		model[path] = &modelFile{data: make([]byte, size)}
	}
	randBytes := func(n int) []byte {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		return data
	}

	s.Spawn("driver", func(env *sim.Env) error {
		for op := 0; op < ops; op++ {
			c := clients[rng.Intn(len(clients))]
			path := paths[rng.Intn(len(paths))]
			mf, exists := model[path]
			switch rng.Intn(9) {
			case 0, 1: // write a random range
				if !exists {
					mf = &modelFile{}
					model[path] = mf
				}
				off := int64(rng.Intn(20000))
				n := 1 + rng.Intn(6000)
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(rng.Intn(256))
				}
				st, err := c.Open(env, path, ReadWriteMode, OpenOptions{Create: true})
				if err != nil {
					return fmt.Errorf("op %d open-w %s: %w", op, path, err)
				}
				if err := c.WriteAt(env, st, off, data); err != nil {
					return fmt.Errorf("op %d write %s: %w", op, path, err)
				}
				mf.writeAt(off, data)
				if err := c.Close(env, st); err != nil {
					return err
				}
			case 2, 3: // read a random range
				if !exists {
					continue
				}
				off := int64(rng.Intn(20000))
				n := 1 + rng.Intn(6000)
				st, err := c.Open(env, path, ReadMode, OpenOptions{})
				if err != nil {
					return fmt.Errorf("op %d open-r %s: %w", op, path, err)
				}
				got, err := c.ReadAt(env, st, off, n)
				if err != nil {
					return fmt.Errorf("op %d read %s: %w", op, path, err)
				}
				want := mf.readAt(off, n)
				if !bytes.Equal(got, want) {
					return fmt.Errorf("op %d: read %s@%d+%d diverged (got %d bytes, want %d; first diff at %d)",
						op, path, off, n, len(got), len(want), firstDiff(got, want))
				}
				if err := c.Close(env, st); err != nil {
					return err
				}
			case 4: // whole-file rewrite (truncate)
				data := randBytes(rng.Intn(10000))
				if err := c.WriteFile(env, path, data); err != nil {
					return fmt.Errorf("op %d rewrite %s: %w", op, path, err)
				}
				model[path] = &modelFile{data: append([]byte(nil), data...)}
			case 5: // scatter-gather write: shuffled byte and zero runs, some touching
				if !exists {
					mf = &modelFile{}
					model[path] = mf
				}
				runs := make([]PageRun, 1+rng.Intn(5))
				off := int64(rng.Intn(20000))
				for i := range runs {
					runs[i] = PageRun{Off: off, Zeros: 1 + rng.Intn(6000)}
					if rng.Intn(2) == 0 {
						runs[i] = PageRun{Off: off, Data: randBytes(1 + rng.Intn(6000))}
					}
					off += int64(runs[i].size() + rng.Intn(2)*rng.Intn(3000))
				}
				mf.writeRuns(runs)
				rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
				st, err := c.Open(env, path, ReadWriteMode, OpenOptions{Create: true})
				if err != nil {
					return fmt.Errorf("op %d open-batch %s: %w", op, path, err)
				}
				if _, err := c.WriteAtBatch(env, st, runs, rng.Intn(3)*5000); err != nil {
					return fmt.Errorf("op %d batch write %s: %w", op, path, err)
				}
				if err := c.Close(env, st); err != nil {
					return err
				}
			case 6: // a flush that carries a size, shrinking or growing the swap file
				mf = model[swapPath]
				fid, _, err := c.Stat(env, swapPath)
				if err != nil {
					return fmt.Errorf("op %d stat %s: %w", op, swapPath, err)
				}
				bs := params.BlockSize
				block, data, newSize := rng.Intn(8), randBytes(1+rng.Intn(bs)), rng.Intn(50000)
				if _, err := fsWrite.Call(c.ep, env, fid.Server, writeArgs{
					FID: fid, Block: block, Data: data, N: len(data), NewSize: newSize,
				}, 48+len(data)); err != nil {
					return fmt.Errorf("op %d sized flush %s: %w", op, swapPath, err)
				}
				mf.writeAt(int64(block*bs), data)
				mf.setSize(newSize)
			case 7: // zeros at the access position, as a length
				if !exists {
					mf = &modelFile{}
					model[path] = mf
				}
				off := int64(rng.Intn(20000))
				n := 1 + rng.Intn(6000)
				st, err := c.Open(env, path, ReadWriteMode, OpenOptions{Create: true})
				if err != nil {
					return fmt.Errorf("op %d open-z %s: %w", op, path, err)
				}
				if err := c.Seek(env, st, off); err != nil {
					return err
				}
				if got, err := c.WriteZeros(env, st, n); err != nil || got != n {
					return fmt.Errorf("op %d zeros %s@%d+%d: wrote %d: %v", op, path, off, n, got, err)
				}
				mf.writeAt(off, make([]byte, n))
				if err := c.Close(env, st); err != nil {
					return err
				}
			case 8: // a counted read, then the same range's bytes
				if !exists {
					continue
				}
				off := int64(rng.Intn(20000))
				n := 1 + rng.Intn(6000)
				st, err := c.Open(env, path, ReadMode, OpenOptions{})
				if err != nil {
					return fmt.Errorf("op %d open-rc %s: %w", op, path, err)
				}
				if err := c.Seek(env, st, off); err != nil {
					return err
				}
				want := mf.readAt(off, n)
				if got, err := c.ReadCount(env, st, n); err != nil || got != len(want) {
					return fmt.Errorf("op %d: count read %s@%d+%d = %d, %v; want %d", op, path, off, n, got, err, len(want))
				}
				got, err := c.ReadAt(env, st, off, n)
				if err != nil {
					return fmt.Errorf("op %d read %s: %w", op, path, err)
				}
				if !bytes.Equal(got, want) {
					return fmt.Errorf("op %d: read %s@%d+%d after count diverged (first diff at %d)", op, path, off, n, firstDiff(got, want))
				}
				if err := c.Close(env, st); err != nil {
					return err
				}
			}
			if v := f.CheckInvariants(false); len(v) > 0 {
				return fmt.Errorf("op %d: %s", op, v[0])
			}
			if err := env.Sleep(time.Millisecond); err != nil {
				return err
			}
		}
		// Final audit: every file read from every client matches.
		for _, path := range paths {
			mf, ok := model[path]
			if !ok {
				continue
			}
			for i, c := range clients {
				got, err := c.ReadFile(env, path)
				if err != nil {
					return fmt.Errorf("audit %s via client %d: %w", path, i, err)
				}
				if !bytes.Equal(got, mf.data) {
					return fmt.Errorf("audit %s via client %d diverged (got %d bytes, want %d, first diff %d)",
						path, i, len(got), len(mf.data), firstDiff(got, mf.data))
				}
			}
		}
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
}

// TestModelStripedActivities runs two activities on one host against one
// cacheable file through a 4-block cache. The file is cut into 512-byte
// stripes, and each activity owns every other one: it writes only its own
// stripes, checks every read of them against its own model, and sleeps a
// random time between operations, so its misses, write-backs and evictions
// interleave with the other's on the same blocks.
func TestModelStripedActivities(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runStripedTest(t, seed, 150)
		})
	}
}

func runStripedTest(t *testing.T, seed int64, ops int) {
	t.Helper()
	const (
		stripe = 512
		span   = 8 * 4096
		path   = "/striped"
	)
	s := sim.New(seed)
	net := netsim.New(s, netsim.DefaultParams())
	tr := rpc.NewTransport(s, net, rpc.DefaultParams())
	params := DefaultParams()
	params.ClientCacheBlocks = 4
	f := New(s, tr, params)
	f.AddServer(1, "/")
	c := f.AddClient(2)
	if _, err := f.SeedSized(path, span, false); err != nil {
		t.Fatal(err)
	}
	models := [2]*modelFile{{data: make([]byte, span)}, {data: make([]byte, span)}}
	for i := range models {
		mf := models[i]
		rng := rand.New(rand.NewSource(2*seed + int64(i)))
		s.Spawn(fmt.Sprintf("striper%d", i), func(env *sim.Env) error {
			st, err := c.Open(env, path, ReadWriteMode, OpenOptions{})
			if err != nil {
				return err
			}
			// own picks one of this activity's stripes, and a range inside it.
			own := func() (int64, int) {
				lo := (2*rng.Intn(span/stripe/2) + i) * stripe
				off := rng.Intn(stripe)
				return int64(lo + off), 1 + rng.Intn(stripe-off)
			}
			for op := 0; op < ops; op++ {
				off, n := own()
				switch rng.Intn(8) {
				case 0, 1, 2: // bytes into the stripe
					data := make([]byte, n)
					rng.Read(data)
					if err := c.WriteAt(env, st, off, data); err != nil {
						return fmt.Errorf("striper %d op %d write: %w", i, op, err)
					}
					mf.writeAt(off, data)
				case 3: // zeros into the stripe, as a length
					if err := c.Seek(env, st, off); err != nil {
						return err
					}
					if _, err := c.WriteZeros(env, st, n); err != nil {
						return fmt.Errorf("striper %d op %d zeros: %w", i, op, err)
					}
					mf.writeAt(off, make([]byte, n))
				case 4, 5, 6:
					got, err := c.ReadAt(env, st, off, n)
					if err != nil {
						return fmt.Errorf("striper %d op %d read: %w", i, op, err)
					}
					if want := mf.readAt(off, n); !bytes.Equal(got, want) {
						return fmt.Errorf("striper %d op %d: read @%d+%d diverged (first diff at %d)", i, op, off, n, firstDiff(got, want))
					}
				case 7:
					c.DropCaches()
				}
				if v := f.CheckInvariants(false); len(v) > 0 {
					return fmt.Errorf("striper %d op %d: %s", i, op, v[0])
				}
				if err := env.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond); err != nil {
					return err
				}
			}
			// Final audit of every stripe this activity owns.
			got, err := c.ReadAt(env, st, 0, span)
			if err != nil {
				return err
			}
			for lo := i * stripe; lo < span; lo += 2 * stripe {
				if !bytes.Equal(got[lo:lo+stripe], mf.data[lo:lo+stripe]) {
					return fmt.Errorf("striper %d audit: stripe @%d diverged", i, lo)
				}
			}
			return c.Close(env, st)
		})
	}
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// TestZeroBlocksAgainstModel pins, at the model tests' 8-block cache, each
// transition of a cache block between bytes and zeros, and checks the file
// against the flat model from both hosts afterwards.
func TestZeroBlocksAgainstModel(t *testing.T) {
	const bs = 4096
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	cases := []struct {
		name string
		// seed is the file's initial contents on the server.
		seed []byte
		run  func(env *sim.Env, z *zeroCase) error
	}{
		{"zeros into a byte block", nil, func(env *sim.Env, z *zeroCase) error {
			if err := z.writeAt(env, z.a, 0, fill(bs, 7)); err != nil {
				return err
			}
			if err := z.expectBlock(z.a, 0, true, true); err != nil {
				return err
			}
			if err := z.zeros(env, z.a, 100, 200); err != nil {
				return err
			}
			return z.expectBlock(z.a, 0, true, true)
		}},
		{"bytes into a zero block", nil, func(env *sim.Env, z *zeroCase) error {
			if err := z.zeros(env, z.a, 0, 2*bs); err != nil {
				return err
			}
			if err := z.expectBlock(z.a, 1, false, true); err != nil {
				return err
			}
			if err := z.writeAt(env, z.a, bs+904, fill(10, 9)); err != nil {
				return err
			}
			if err := z.expectBlock(z.a, 1, true, true); err != nil {
				return err
			}
			return z.expectBlock(z.a, 0, false, true)
		}},
		{"a zero block evicted dirty", fill(2*bs, 5), func(env *sim.Env, z *zeroCase) error {
			if err := z.zeros(env, z.a, 0, bs); err != nil {
				return err
			}
			if err := z.expectBlock(z.a, 0, false, true); err != nil {
				return err
			}
			flushes := z.flushes.Value()
			st, err := z.a.Open(env, "/other", WriteMode, OpenOptions{Create: true})
			if err != nil {
				return err
			}
			if _, err := z.a.Write(env, st, fill(8*bs, 1)); err != nil {
				return err
			}
			if err := z.a.Close(env, st); err != nil {
				return err
			}
			if _, ok := z.a.blocks[z.key(0)]; ok || z.flushes.Value() == flushes {
				return fmt.Errorf("block 0 cached=%t after filling the cache, flushes %d -> %d; want it evicted dirty",
					ok, flushes, z.flushes.Value())
			}
			return nil
		}},
		{"a zero block recalled by fsc.flush", fill(3*bs, 5), func(env *sim.Env, z *zeroCase) error {
			if err := z.zeros(env, z.a, bs-10, bs+20); err != nil {
				return err
			}
			if err := z.expectBlock(z.a, 1, false, true); err != nil {
				return err
			}
			recalls := z.srv.Stats().FlushRecall
			st, err := z.b.Open(env, "/z", ReadMode, OpenOptions{})
			if err != nil {
				return err
			}
			if z.srv.Stats().FlushRecall == recalls || z.a.DirtyBlocks() != 0 {
				return fmt.Errorf("open by another host: flush recalls %d -> %d, %d dirty left; want one recall, none left",
					recalls, z.srv.Stats().FlushRecall, z.a.DirtyBlocks())
			}
			return z.b.Close(env, st)
		}},
		{"a zero block recalled by fsc.disable", fill(3*bs, 5), func(env *sim.Env, z *zeroCase) error {
			st, err := z.a.Open(env, "/z", WriteMode, OpenOptions{})
			if err != nil {
				return err
			}
			if _, err := z.a.WriteZeros(env, st, bs+20); err != nil {
				return err
			}
			z.model.writeAt(0, make([]byte, bs+20))
			if err := z.expectBlock(z.a, 0, false, true); err != nil {
				return err
			}
			disables := z.srv.Stats().Disables
			sb, err := z.b.Open(env, "/z", WriteMode, OpenOptions{})
			if err != nil {
				return err
			}
			if z.srv.Stats().Disables == disables || z.a.CachedBlocks() != 0 {
				return fmt.Errorf("write-shared open: disables %d -> %d, %d blocks left cached; want one disable, none cached",
					disables, z.srv.Stats().Disables, z.a.CachedBlocks())
			}
			if err := z.b.Close(env, sb); err != nil {
				return err
			}
			return z.a.Close(env, st)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			net := netsim.New(s, netsim.DefaultParams())
			tr := rpc.NewTransport(s, net, rpc.DefaultParams())
			params := DefaultParams()
			params.ClientCacheBlocks = 8
			f := New(s, tr, params)
			reg := metrics.New()
			f.SetMetrics(reg)
			z := &zeroCase{srv: f.AddServer(1, "/"), a: f.AddClient(2), b: f.AddClient(3), model: &modelFile{},
				flushes: reg.Counter("fs.cache.flushes")}
			fid, err := f.Seed("/z", tc.seed, false)
			if err != nil {
				t.Fatal(err)
			}
			z.fid = fid
			z.model.writeAt(0, tc.seed)
			s.Spawn("driver", func(env *sim.Env) error {
				if err := tc.run(env, z); err != nil {
					return err
				}
				if v := f.CheckInvariants(false); len(v) > 0 {
					return fmt.Errorf("invariant: %s", v[0])
				}
				for _, c := range []*Client{z.a, z.b} {
					got, err := c.ReadFile(env, "/z")
					if err != nil {
						return err
					}
					if !bytes.Equal(got, z.model.data) {
						return fmt.Errorf("host %v reads %d bytes, model %d; first diff at %d",
							c.Host(), len(got), len(z.model.data), firstDiff(got, z.model.data))
					}
				}
				return nil
			})
			if err := s.Run(0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// zeroCase is one TestZeroBlocksAgainstModel scenario's fabric: file /z on
// server srv, written through clients a and b, mirrored in model.
type zeroCase struct {
	srv     *Server
	a, b    *Client
	fid     FileID
	model   *modelFile
	flushes *metrics.Counter // the fabric's fs.cache.flushes
}

func (z *zeroCase) key(block int) cacheKey { return cacheKey{fid: z.fid, block: block} }

// writeAt writes data to /z at off through c, and to the model.
func (z *zeroCase) writeAt(env *sim.Env, c *Client, off int64, data []byte) error {
	st, err := c.Open(env, "/z", WriteMode, OpenOptions{})
	if err != nil {
		return err
	}
	if err := c.WriteAt(env, st, off, data); err != nil {
		return err
	}
	z.model.writeAt(off, data)
	return c.Close(env, st)
}

// zeros writes n zeros to /z at off through c's stream position, and to the
// model.
func (z *zeroCase) zeros(env *sim.Env, c *Client, off int64, n int) error {
	st, err := c.Open(env, "/z", WriteMode, OpenOptions{})
	if err != nil {
		return err
	}
	if err := c.Seek(env, st, off); err != nil {
		return err
	}
	if _, err := c.WriteZeros(env, st, n); err != nil {
		return err
	}
	z.model.writeAt(off, make([]byte, n))
	return c.Close(env, st)
}

// expectBlock checks that c caches /z's block, holding bytes or (nil) zeros
// as hasBytes says, dirty as dirty says.
func (z *zeroCase) expectBlock(c *Client, block int, hasBytes, dirty bool) error {
	b, ok := c.blocks[z.key(block)]
	if !ok {
		return fmt.Errorf("block %d not cached on host %v", block, c.Host())
	}
	if (b.data != nil) != hasBytes || b.dirty != dirty {
		return fmt.Errorf("block %d on host %v: bytes=%t dirty=%t, want bytes=%t dirty=%t",
			block, c.Host(), b.data != nil, b.dirty, hasBytes, dirty)
	}
	return nil
}
