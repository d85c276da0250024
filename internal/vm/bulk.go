package vm

import (
	"fmt"

	"sprite/internal/fs"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// FlushDirtyBulk writes every dirty heap/stack page to backing store as
// coalesced page runs through the bulk-transfer path (fs.WriteAtBatch →
// fs.writeBulk), marking them clean. Contiguous dirty pages become one
// transfer; maxRunPages bounds a single transfer's length (0 = unlimited).
// It returns the pages written and the accumulated wire statistics. This is
// the core of Sprite's migration-time VM transfer: one handshake per run.
func (as *AddressSpace) FlushDirtyBulk(env *sim.Env, client *fs.Client, maxRunPages int) (int, rpc.BulkStats, error) {
	var bs rpc.BulkStats
	written := 0
	ps := as.params.PageSize
	maxRunBytes := 0
	if maxRunPages > 0 {
		maxRunBytes = maxRunPages * ps
	}
	for _, seg := range [2]*Segment{as.Heap, as.Stack} {
		if seg.Backing == nil {
			continue
		}
		// Each maximal span of dirty pages is one zero run.
		runs := make([]fs.PageRun, 0, 8)
		for lo, hi := 0, 0; lo < seg.pages; lo = hi + 1 {
			for hi = lo; hi < seg.pages && seg.dirty[hi]; hi++ {
			}
			if hi > lo {
				runs = append(runs, fs.PageRun{Off: int64(lo) * int64(ps), Zeros: (hi - lo) * ps})
			}
		}
		if len(runs) == 0 {
			continue
		}
		segStats, err := client.WriteAtBatch(env, seg.Backing, runs, maxRunBytes)
		bs.Add(segStats)
		if err != nil {
			return written, bs, fmt.Errorf("vm: bulk flush %s: %w", seg.Kind, err)
		}
		for _, r := range runs {
			lo, n := int(r.Off)/ps, r.Zeros/ps
			clear(seg.dirty[lo : lo+n])
			written += n
			as.stats.PageOuts += uint64(n)
		}
	}
	return written, bs, nil
}

// ReadaheadPager pages from the backing stream like FilePager, but fills a
// run of pages per fault through the bulk-read path: the faulting page plus
// up to Window-1 following non-resident pages arrive in one fs.readBulk
// transfer and are mapped in clean. A freshly migrated process touching its
// memory sequentially takes one fault per run instead of one per page.
type ReadaheadPager struct {
	// Client is the FS client of the host where the process currently runs.
	Client *fs.Client
	// Window is the maximum pages fetched per fault (values < 1 behave as 1).
	Window int
}

// PageIn reads the faulting page and its readahead run from backing store.
func (p *ReadaheadPager) PageIn(env *sim.Env, seg *Segment, page int) error {
	if seg.Backing == nil {
		return nil // anonymous zero-fill page
	}
	ps := seg.space.params.PageSize
	// The run extends from the faulting page up to the next resident page
	// (whose contents must not be overwritten in the resident set model) or
	// the window/segment end.
	end := page + 1
	for end < seg.pages && end-page < p.Window && !seg.resident[end] {
		end++
	}
	off := int64(page) * int64(ps)
	_, _, err := p.Client.ReadAtBulk(env, seg.Backing, off, (end-page)*ps)
	if err != nil {
		return err
	}
	// The extra pages become resident and clean without faults of their own;
	// the faulting page itself is mapped by Touch on return.
	for i := page + 1; i < end; i++ {
		seg.resident[i] = true
		seg.dirty[i] = false
		seg.space.stats.Prefetched++
	}
	return nil
}
