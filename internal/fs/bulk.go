package fs

import (
	"fmt"
	"slices"
	"sort"

	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// PageRun is one contiguous extent of a scatter-gather write: the bytes in
// Data, or when Data is nil, Zeros zero bytes that are counted on the wire
// and at the server but never materialised. The VM system flushes pages as
// zero runs because page contents are not modelled.
type PageRun struct {
	Off   int64
	Data  []byte
	Zeros int
}

// size returns the run's length in bytes.
func (r PageRun) size() int {
	if r.Data != nil {
		return len(r.Data)
	}
	return r.Zeros
}

// WriteAtBatch performs a vectored write: the runs are sorted, contiguous
// runs are coalesced, and each coalesced extent is shipped to the I/O server
// as one fs.writeBulk bulk transfer (a single handshake plus pipelined
// fragments) instead of one fs.write RPC per block. This is the migration
// flush hot path: a dirty 8 MB heap becomes a handful of bulk calls rather
// than two thousand round trips.
//
// Cacheable files fall back to the ordinary per-block write path, which
// keeps the delayed-write-back and consistency machinery authoritative;
// bulk transfer is for uncacheable data (VM backing store) where every byte
// goes to the server anyway.
//
// maxRunBytes bounds a single bulk transfer: coalesced extents longer than
// that are split, so one call never monopolizes the server or the wire for
// arbitrarily long (0 = unlimited).
func (c *Client) WriteAtBatch(env *sim.Env, st *Stream, runs []PageRun, maxRunBytes int) (rpc.BulkStats, error) {
	var bs rpc.BulkStats
	if st.closed {
		return bs, ErrBadStream
	}
	if st.pipe {
		return bs, fmt.Errorf("bulk write %s: %w", st.Path, ErrBadStream)
	}
	for _, ext := range splitRuns(coalesceRuns(runs), maxRunBytes) {
		if c.cacheEnabled(st) {
			if err := c.writeRun(env, st, ext); err != nil {
				return bs, err
			}
			continue
		}
		one, err := c.writeBulk(env, st, ext)
		if err != nil {
			return bs, err
		}
		bs.Add(one)
		c.countWritten(env, ext.size())
	}
	return bs, nil
}

// writeBulk ships one contiguous extent through the bulk-transfer path.
func (c *Client) writeBulk(env *sim.Env, st *Stream, ext PageRun) (rpc.BulkStats, error) {
	n := ext.size()
	newSize := int(ext.Off) + n
	defer c.bumpSize(st, newSize)
	c.note(st, func(m *fileMeta) { m.size = max(m.size, newSize) })
	r, bs, err := fsWriteBulk.CallBulk(c.ep, env, st.FID.Server, writeBulkArgs{
		FID: st.FID, Off: ext.Off, Data: ext.Data, N: n, NewSize: -1,
	}, 48, n, rpc.BulkOut)
	if err != nil {
		return bs, fmt.Errorf("bulk write %s at %d: %w", st.Path, ext.Off, err)
	}
	c.note(st, func(m *fileMeta) { m.ver = r.Version })
	c.bumpSize(st, r.Size)
	// Any cached blocks overlapping the extent predate this write and are
	// now stale; drop them rather than patching.
	c.dropRange(st.FID, ext.Off, n)
	return bs, nil
}

// ReadAtBulk transfers [off, off+n), clamped at end of file, as one
// fs.readBulk bulk transfer without moving the access position, and returns
// the number of bytes transferred — not the bytes: it is the readahead
// pager's fill path (a page fault pulls a whole run of pages in one handshake
// instead of one RPC per block) and page contents are not modelled; ReadAt
// is for callers that want contents. Cacheable files fall back to the
// per-block cached path.
func (c *Client) ReadAtBulk(env *sim.Env, st *Stream, off int64, n int) (int, rpc.BulkStats, error) {
	var bs rpc.BulkStats
	if st.closed {
		return 0, bs, ErrBadStream
	}
	if st.pipe {
		return 0, bs, fmt.Errorf("bulk read %s: %w", st.Path, ErrBadStream)
	}
	avail := int(min(int64(n), int64(c.knownSize(st))-off))
	if avail <= 0 {
		return 0, bs, nil
	}
	if c.cacheEnabled(st) {
		if _, _, err := c.readRange(env, st, off, avail, false); err != nil {
			return 0, bs, err
		}
		return avail, bs, nil
	}
	_, bs, err := fsReadBulk.CallBulk(c.ep, env, st.FID.Server, readBulkArgs{
		FID: st.FID, Off: off, N: avail,
	}, 40, 0, rpc.BulkIn)
	if err != nil {
		return 0, bs, fmt.Errorf("bulk read %s at %d: %w", st.Path, off, err)
	}
	c.countRead(env, avail)
	return avail, bs, nil
}

// dropRange evicts cached blocks of fid overlapping [off, off+n).
func (c *Client) dropRange(fid FileID, off int64, n int) {
	if n <= 0 {
		return
	}
	bs := c.fs.params.BlockSize
	first := int(off) / bs
	last := (int(off) + n - 1) / bs
	for b := first; b <= last; b++ {
		if cb, ok := c.blocks[cacheKey{fid: fid, block: b}]; ok {
			c.removeBlock(cb)
		}
	}
}

// coalesceRuns sorts runs by offset and merges extents that touch, so the
// bulk path sees the longest possible contiguous transfers. A group of zero
// runs merges by adding lengths; a group holding any bytes is materialised.
func coalesceRuns(runs []PageRun) []PageRun {
	i := 1
	for i < len(runs) && runs[i-1].Off+int64(runs[i-1].size()) < runs[i].Off {
		i++
	}
	if i >= len(runs) {
		return runs // in order with gaps between: nothing to merge
	}
	sorted := make([]PageRun, len(runs))
	copy(sorted, runs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Off < sorted[j].Off })
	var out []PageRun
	for i := 0; i < len(sorted); {
		j := i + 1
		total := sorted[i].size()
		hasBytes := sorted[i].Data != nil
		for j < len(sorted) && sorted[i].Off+int64(total) == sorted[j].Off {
			total += sorted[j].size()
			hasBytes = hasBytes || sorted[j].Data != nil
			j++
		}
		switch {
		case j == i+1:
			out = append(out, sorted[i])
		case !hasBytes:
			out = append(out, PageRun{Off: sorted[i].Off, Zeros: total})
		default:
			buf := make([]byte, total)
			for _, r := range sorted[i:j] {
				copy(buf[r.Off-sorted[i].Off:], r.Data)
			}
			out = append(out, PageRun{Off: sorted[i].Off, Data: buf})
		}
		i = j
	}
	return out
}

// splitRuns cuts extents longer than maxBytes into maxBytes-sized pieces.
func splitRuns(runs []PageRun, maxBytes int) []PageRun {
	if maxBytes <= 0 || !slices.ContainsFunc(runs, func(r PageRun) bool { return r.size() > maxBytes }) {
		return runs
	}
	var out []PageRun
	for _, r := range runs {
		for r.size() > maxBytes {
			head := PageRun{Off: r.Off}
			if r.Data != nil {
				head.Data, r.Data = r.Data[:maxBytes], r.Data[maxBytes:]
			} else {
				head.Zeros, r.Zeros = maxBytes, r.Zeros-maxBytes
			}
			r.Off += int64(maxBytes)
			out = append(out, head)
		}
		out = append(out, r)
	}
	return out
}
