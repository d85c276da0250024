package vm

import (
	"fmt"

	"sprite/internal/sim"
)

// PageOuter is implemented by pagers that can write a dirty page back to
// wherever it pages from, so the page can be evicted under memory pressure.
type PageOuter interface {
	// PageOut charges the cost of writing one dirty page out.
	PageOut(env *sim.Env, seg *Segment, page int) error
}

// SetMaxResident caps the address space's resident set; bringing in a page
// beyond the cap evicts another first (clock order). Zero means unlimited.
func (as *AddressSpace) SetMaxResident(pages int) { as.maxResident = pages }

// evictOne frees one resident page using a simple clock sweep across the
// segments. Dirty pages are written back through the segment's pager
// first; clean pages are dropped for free.
func (as *AddressSpace) evictOne(env *sim.Env, keep *Segment, keepPage int) error {
	segs := as.Segments()
	total := 0
	for _, s := range segs {
		total += s.pages
	}
	for scanned := 0; scanned < total; scanned++ {
		seg, page := as.clockPosition()
		as.advanceClock()
		if seg == keep && page == keepPage {
			continue
		}
		if !seg.resident[page] {
			continue
		}
		if seg.dirty[page] {
			po, ok := seg.pager.(PageOuter)
			if !ok {
				continue // cannot evict dirty pages through this pager
			}
			if err := po.PageOut(env, seg, page); err != nil {
				return fmt.Errorf("vm: page out %s/%d: %w", seg.Kind, page, err)
			}
			seg.dirty[page] = false
			as.stats.PageOuts++
		}
		seg.resident[page] = false
		return nil
	}
	return fmt.Errorf("vm: no evictable page in %s", as.name)
}

// clockPosition returns the segment and page under the clock hand.
func (as *AddressSpace) clockPosition() (*Segment, int) {
	segs := as.Segments()
	idx := as.clockSeg % len(segs)
	seg := segs[idx]
	if seg.pages == 0 {
		return seg, 0
	}
	return seg, as.clockPage % seg.pages
}

// advanceClock moves the hand one page forward, wrapping across segments.
func (as *AddressSpace) advanceClock() {
	segs := as.Segments()
	seg := segs[as.clockSeg%len(segs)]
	as.clockPage++
	if seg.pages == 0 || as.clockPage >= seg.pages {
		as.clockPage = 0
		as.clockSeg = (as.clockSeg + 1) % len(segs)
	}
}

// PageOut implements PageOuter for the file-system pager: the page is
// written to its backing stream.
func (p FilePager) PageOut(env *sim.Env, seg *Segment, page int) error {
	if seg.Backing == nil {
		return nil
	}
	ps := seg.space.params.PageSize
	off := int64(page) * int64(ps)
	return p.Client.WriteAt(env, seg.Backing, off, make([]byte, ps))
}

var _ PageOuter = FilePager{}
