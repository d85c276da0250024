// Package vm models Sprite's virtual memory as it matters to process
// migration: segmented address spaces whose pages carry resident and dirty
// bits, demand-paged from backing files in the shared network file system.
//
// Paging through the file system is the property that makes Sprite's
// migration strategy cheap: to migrate, the source flushes dirty pages to
// the (network) backing file and the target demand-pages them as the
// process touches memory — the machinery to page across the network already
// exists [Nel88]. Alternative strategies (full copy, copy-on-reference,
// pre-copy) are expressed by swapping the segment's Pager.
package vm

import (
	"errors"
	"fmt"
	"time"

	"sprite/internal/fs"
	"sprite/internal/sim"
)

// Errors reported by the VM system.
var (
	// ErrBadPage is returned for out-of-range page indexes.
	ErrBadPage = errors.New("vm: page index out of range")
)

// SegmentKind distinguishes the classic UNIX segments.
type SegmentKind int

// Segment kinds.
const (
	CodeSegment SegmentKind = iota + 1
	HeapSegment
	StackSegment
)

func (k SegmentKind) String() string {
	switch k {
	case CodeSegment:
		return "code"
	case HeapSegment:
		return "heap"
	case StackSegment:
		return "stack"
	default:
		return "?"
	}
}

// Params configures the VM system.
type Params struct {
	// PageSize in bytes (Sprite used 8 KB on Sun-3s).
	PageSize int
	// FaultCPU is the local CPU cost of taking a page fault, excluding the
	// I/O to fetch the page.
	FaultCPU time.Duration
}

// DefaultParams returns Sun-3-era VM parameters.
func DefaultParams() Params {
	return Params{
		PageSize: 8192,
		FaultCPU: 500 * time.Microsecond,
	}
}

// Pager supplies a page's contents when a non-resident page is touched.
type Pager interface {
	// PageIn charges the cost of bringing one page into memory.
	PageIn(env *sim.Env, seg *Segment, page int) error
}

// Stats counts VM events for an address space.
type Stats struct {
	Faults   uint64
	PageIns  uint64
	PageOuts uint64
	// Prefetched counts pages brought in ahead of demand by the readahead
	// pager (they become resident without taking a fault of their own).
	Prefetched uint64
}

// Segment is one region of an address space.
type Segment struct {
	Kind     SegmentKind
	pages    int
	resident []bool
	dirty    []bool
	pager    Pager
	space    *AddressSpace

	// Backing is the segment's backing-store stream (nil for code, which
	// pages from the program binary through Binary).
	Backing *fs.Stream
}

// Pages returns the segment's size in pages.
func (s *Segment) Pages() int { return s.pages }

// Resident reports whether page i is resident.
func (s *Segment) Resident(i int) bool { return i >= 0 && i < s.pages && s.resident[i] }

// Dirty reports whether page i is dirty.
func (s *Segment) Dirty(i int) bool { return i >= 0 && i < s.pages && s.dirty[i] }

// ResidentCount returns the number of resident pages.
func (s *Segment) ResidentCount() int { return countTrue(s.resident) }

// DirtyCount returns the number of dirty pages.
func (s *Segment) DirtyCount() int { return countTrue(s.dirty) }

// SetPager replaces the segment's pager (used by migration strategies).
func (s *Segment) SetPager(p Pager) { s.pager = p }

// InvalidateAll marks every page non-resident and clean (after the Sprite
// flush, the target starts with an empty resident set).
func (s *Segment) InvalidateAll() {
	for i := range s.resident {
		s.resident[i] = false
		s.dirty[i] = false
	}
}

// MarkResident marks page i resident (no cost — used by transfer strategies
// that ship pages directly).
func (s *Segment) MarkResident(i int, dirty bool) {
	if i >= 0 && i < s.pages {
		s.resident[i] = true
		s.dirty[i] = dirty
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// AddressSpace is a process's memory image.
type AddressSpace struct {
	params Params

	Code  *Segment
	Heap  *Segment
	Stack *Segment
	segs  [3]Segment // Code, Heap and Stack point here

	stats Stats

	cpu CPU // charged for fault handling; nil charges nothing
}

// CPU is what an address space charges fault handling to (a process).
type CPU interface {
	ChargeCPU(env *sim.Env, d time.Duration) error
}

// Config sizes a new address space.
type Config struct {
	// CodePages, HeapPages, StackPages size the three segments.
	CodePages  int
	HeapPages  int
	StackPages int
	// BinaryPath is the program file backing the code segment.
	BinaryPath string
}

// swapDir is the directory for backing-store files.
const swapDir = "/swap"

// New creates an address space for a named process, opening its backing
// store through the given file system client. The code segment pages from
// the binary; heap and stack page from per-process uncacheable swap files.
func New(env *sim.Env, client *fs.Client, name string, cfg Config, params Params) (*AddressSpace, error) {
	if params.PageSize <= 0 {
		params.PageSize = 8192
	}
	// The space holds its segments, and one array all their bitmaps.
	as := &AddressSpace{params: params}
	fsp := FilePager{Client: client}
	pages := [3]int{cfg.CodePages, cfg.HeapPages, cfg.StackPages}
	bits := make([]bool, 2*(pages[0]+pages[1]+pages[2]))
	for i, n := range pages {
		as.segs[i] = Segment{
			Kind: CodeSegment + SegmentKind(i), pages: n, pager: fsp, space: as,
			resident: bits[:n:n], dirty: bits[n : 2*n : 2*n],
		}
		bits = bits[2*n:]
	}
	as.Code, as.Heap, as.Stack = &as.segs[0], &as.segs[1], &as.segs[2]

	if cfg.BinaryPath != "" && cfg.CodePages > 0 {
		st, err := client.Open(env, cfg.BinaryPath, fs.ReadMode, fs.OpenOptions{})
		if err != nil {
			return nil, fmt.Errorf("vm: open binary: %w", err)
		}
		as.Code.Backing = st
	}
	for _, seg := range []*Segment{as.Heap, as.Stack} {
		if seg.pages == 0 {
			continue
		}
		path := swapDir + "/" + name + "." + seg.Kind.String()
		st, err := client.Open(env, path, fs.ReadWriteMode, fs.OpenOptions{Create: true, Uncacheable: true})
		if err != nil {
			return nil, fmt.Errorf("vm: open backing store: %w", err)
		}
		seg.Backing = st
	}
	return as, nil
}

// Params returns the VM parameters.
func (as *AddressSpace) Params() Params { return as.params }

// Stats returns a copy of the fault counters.
func (as *AddressSpace) Stats() Stats { return as.stats }

// Segments returns the three segments.
func (as *AddressSpace) Segments() []*Segment {
	return []*Segment{as.Code, as.Heap, as.Stack}
}

// TotalPages returns the address space size in pages.
func (as *AddressSpace) TotalPages() int {
	return as.Code.pages + as.Heap.pages + as.Stack.pages
}

// ResidentPages returns the total resident page count.
func (as *AddressSpace) ResidentPages() int {
	return as.Code.ResidentCount() + as.Heap.ResidentCount() + as.Stack.ResidentCount()
}

// DirtyPages returns the total dirty page count.
func (as *AddressSpace) DirtyPages() int {
	return as.Heap.DirtyCount() + as.Stack.DirtyCount()
}

// SetCPU installs what fault handling is charged to.
func (as *AddressSpace) SetCPU(cpu CPU) { as.cpu = cpu }

// SetPagerAll installs one pager on every segment.
func (as *AddressSpace) SetPagerAll(p Pager) {
	for _, seg := range as.Segments() {
		seg.pager = p
	}
}

// Touch references page i of seg, faulting it in if necessary; write marks
// it dirty. This is the single entry point by which running programs
// exercise their memory.
func (as *AddressSpace) Touch(env *sim.Env, seg *Segment, page int, write bool) error {
	if page < 0 || page >= seg.pages {
		return fmt.Errorf("%w: %s page %d of %d", ErrBadPage, seg.Kind, page, seg.pages)
	}
	if !seg.resident[page] {
		as.stats.Faults++
		if as.cpu != nil && as.params.FaultCPU > 0 {
			if err := as.cpu.ChargeCPU(env, as.params.FaultCPU); err != nil {
				return err
			}
		}
		if seg.pager != nil {
			if err := seg.pager.PageIn(env, seg, page); err != nil {
				return fmt.Errorf("vm: page in %s/%d: %w", seg.Kind, page, err)
			}
		}
		as.stats.PageIns++
		seg.resident[page] = true
	}
	if write {
		seg.dirty[page] = true
	}
	return nil
}

// TouchRange references pages [lo, hi) of seg.
func (as *AddressSpace) TouchRange(env *sim.Env, seg *Segment, lo, hi int, write bool) error {
	for i := lo; i < hi; i++ {
		if err := as.Touch(env, seg, i, write); err != nil {
			return err
		}
	}
	return nil
}

// FilePager pages from the segment's backing stream through the file
// system — Sprite's normal paging path. It is passed by value: an
// interface holds its one pointer without allocating.
type FilePager struct {
	// Client is the FS client of the host where the process currently runs.
	Client *fs.Client
}

// PageIn reads the page from the backing stream, counting only: page
// contents are not modelled, so nothing is materialised.
func (p FilePager) PageIn(env *sim.Env, seg *Segment, page int) error {
	if seg.Backing == nil {
		return nil // anonymous zero-fill page
	}
	ps := seg.space.params.PageSize
	off := int64(page) * int64(ps)
	_, err := p.Client.ReadCountAt(env, seg.Backing, off, ps)
	return err
}
