package fs

import (
	"bytes"
	"errors"
	"testing"

	"sprite/internal/sim"
)

func fill(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

// TestWriteAtBatchAndReadAtBulk checks what a vectored write stores and what
// a bulk read counts, case by case, against a flat byte-slice oracle.
func TestWriteAtBatchAndReadAtBulk(t *testing.T) {
	const bs = 4096 // DefaultParams().BlockSize
	cases := []struct {
		name      string
		cacheable bool
		seed      []byte // stored content before the batch
		seedSized int    // or an unstored file of this size
		runs      []PageRun
		maxRun    int
		calls     int // bulk transfers the batch makes
	}{
		{
			name: "unsorted touching byte runs become one transfer",
			runs: []PageRun{
				{Off: 2 * bs, Data: fill('c', bs)},
				{Off: 0, Data: fill('a', bs)},
				{Off: bs, Data: fill('b', bs)},
			},
			calls: 1,
		},
		{
			name: "zero runs coalesce by length and stop at a gap",
			runs: []PageRun{
				{Off: 2 * bs, Zeros: bs}, {Off: 0, Zeros: bs}, {Off: bs, Zeros: bs},
				{Off: 5 * bs, Zeros: bs},
			},
			calls: 2,
		},
		{
			name: "a group mixing bytes and zeros is materialised",
			runs: []PageRun{
				{Off: 0, Data: fill('x', 100)},
				{Off: 100, Zeros: 100},
				{Off: 200, Data: fill('y', 50)},
			},
			calls: 1,
		},
		{
			name:  "a zero run clears stored bytes",
			seed:  fill(0xff, 3*bs),
			runs:  []PageRun{{Off: bs - 10, Zeros: bs + 20}},
			calls: 1,
		},
		{
			name:      "bytes land inside a hole",
			seedSized: 4 * bs,
			runs:      []PageRun{{Off: bs + 904, Data: fill('h', 10)}},
			calls:     1,
		},
		{
			name:   "long runs split at maxRunBytes",
			seed:   fill(0xff, 100),
			runs:   []PageRun{{Off: 0, Data: fill('d', 10000)}, {Off: 20000, Zeros: 10000}},
			maxRun: bs,
			calls:  6,
		},
		{
			name:      "a cacheable file falls back to the block cache",
			cacheable: true,
			seed:      fill(0xff, 2*bs),
			runs: []PageRun{
				{Off: 100, Zeros: bs},
				{Off: 100 + bs, Data: fill('k', 300)},
				{Off: 3 * bs, Zeros: 10},
			},
			calls: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 1)
			c := h.fs.Client(2)
			model := &modelFile{data: append(make([]byte, tc.seedSized), tc.seed...)}
			var err error
			if tc.seedSized > 0 {
				_, err = h.fs.SeedSized("/f", tc.seedSized, !tc.cacheable)
			} else {
				_, err = h.fs.Seed("/f", tc.seed, !tc.cacheable)
			}
			if err != nil {
				t.Fatal(err)
			}
			model.writeRuns(tc.runs)
			size := len(model.data)
			wantBytes := 0 // what goes by bulk transfer: nothing on a cacheable file
			for _, r := range tc.runs {
				if !tc.cacheable {
					wantBytes += r.size()
				}
			}
			h.run(t, func(env *sim.Env) error {
				st, err := c.Open(env, "/f", ReadWriteMode, OpenOptions{})
				if err != nil {
					return err
				}
				ws, err := c.WriteAtBatch(env, st, tc.runs, tc.maxRun)
				if err != nil {
					return err
				}
				if ws.Calls != tc.calls || ws.Bytes != wantBytes {
					t.Errorf("write stats = %d calls / %d bytes, want %d / %d", ws.Calls, ws.Bytes, tc.calls, wantBytes)
				}
				got, err := c.ReadAt(env, st, 0, size+bs)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, model.data) {
					t.Errorf("content diverged: got %d bytes, want %d, first diff at %d", len(got), size, firstDiff(got, model.data))
				}
				if _, statSize, err := c.Stat(env, "/f"); err != nil || statSize != size {
					t.Errorf("stat size = %d, %v; want %d", statSize, err, size)
				}
				// A bulk read counts what it moved and clamps at end of file.
				for _, rd := range []struct {
					off     int64
					n, want int
				}{
					{0, size, size},
					{int64(size) - 100, bs, 100},
					{int64(size), bs, 0},
				} {
					n, rs, err := c.ReadAtBulk(env, st, rd.off, rd.n)
					if err != nil {
						return err
					}
					wantCalls, wantWire := 1, 16+rd.want // reply header + payload
					if tc.cacheable || rd.want == 0 {
						wantCalls, wantWire = 0, 0
					}
					if n != rd.want || rs.Calls != wantCalls || rs.Bytes != wantWire {
						t.Errorf("ReadAtBulk(%d, %d) = %d (%d calls, %d bytes), want %d (%d, %d)",
							rd.off, rd.n, n, rs.Calls, rs.Bytes, rd.want, wantCalls, wantWire)
					}
				}
				return c.Close(env, st)
			})
		})
	}

	// Neither call has a meaning on a closed stream or on a pipe (which has
	// no offsets), and both say so.
	t.Run("closed and pipe streams are rejected", func(t *testing.T) {
		h := newHarness(t, 1)
		c := h.fs.Client(2)
		h.run(t, func(env *sim.Env) error {
			closed, err := c.Open(env, "/f", ReadWriteMode, OpenOptions{Create: true, Uncacheable: true})
			if err != nil {
				return err
			}
			if err := c.Close(env, closed); err != nil {
				return err
			}
			pr, pw, err := c.CreatePipe(env)
			if err != nil {
				return err
			}
			if _, err := c.Write(env, pw, fill('p', 64)); err != nil {
				return err
			}
			for _, st := range []*Stream{closed, pr, pw} {
				if _, err := c.WriteAtBatch(env, st, []PageRun{{Off: 0, Zeros: 8}}, 0); !errors.Is(err, ErrBadStream) {
					t.Errorf("WriteAtBatch on %s: err = %v, want ErrBadStream", st.Path, err)
				}
				if n, _, err := c.ReadAtBulk(env, st, 0, 8); !errors.Is(err, ErrBadStream) || n != 0 {
					t.Errorf("ReadAtBulk on %s = %d, %v; want 0, ErrBadStream", st.Path, n, err)
				}
			}
			if err := c.Close(env, pr); err != nil {
				return err
			}
			return c.Close(env, pw)
		})
	})
}
