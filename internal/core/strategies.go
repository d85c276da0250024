package core

import (
	"sprite/internal/rpc"
	"sprite/internal/sim"
	"sprite/internal/vm"
)

// TransferStrategy is how a migration moves the process's virtual memory.
// The thesis surveys four designs (Ch. 2 and 4); Sprite's contribution is
// the backing-store flush, and the others are implemented as ablations.
type TransferStrategy interface {
	// Name identifies the strategy in records and tables.
	Name() string
	// Transfer moves p's address space (never nil) from src to dst,
	// charging costs and filling in rec.
	Transfer(env *sim.Env, src, dst *Kernel, p *Process, rec *MigrationRecord) error
	// TargetPager returns the pager p uses on the target after migration.
	TargetPager(src, dst *Kernel, p *Process) vm.Pager
}

// SpriteFlushStrategy is Sprite's design: write dirty pages to the shared
// backing file, discard the resident set, and let the target demand-page
// from the file server. No residual dependency on the source host — only on
// the (already trusted) file server.
type SpriteFlushStrategy struct{}

var _ TransferStrategy = SpriteFlushStrategy{}

// Name implements TransferStrategy.
func (SpriteFlushStrategy) Name() string { return "sprite-flush" }

// maxRunPages bounds one bulk flush's length in pages: long runs are split
// so a single call never monopolizes the server or the wire.
const maxRunPages = 256

// Transfer implements TransferStrategy. The dirty set flushes as coalesced
// page runs through fs.writeBulk — one handshake and a pipelined fragment
// stream per run.
func (SpriteFlushStrategy) Transfer(env *sim.Env, src, dst *Kernel, p *Process, rec *MigrationRecord) error {
	n, bs, err := p.space.FlushDirtyBulk(env, src.fsc, maxRunPages)
	if err != nil {
		return err
	}
	rec.PagesFlushed = n
	rec.VMBytes = n * src.params.VM.PageSize
	noteBatch(rec, bs)
	for _, seg := range p.space.Segments() {
		seg.InvalidateAll()
	}
	return nil
}

// prefetchPages is the target-side readahead window: a post-migration fault
// pulls up to this many pages in one bulk read.
const prefetchPages = 16

// TargetPager implements TransferStrategy: file-system paging on the target
// through the readahead pager, so the process repopulates its resident set
// in runs.
func (SpriteFlushStrategy) TargetPager(src, dst *Kernel, p *Process) vm.Pager {
	return &dst.readahead
}

// noteBatch folds one bulk transfer's wire stats into the record.
func noteBatch(rec *MigrationRecord, bs rpc.BulkStats) {
	rec.Batched = true
	rec.BatchRuns += bs.Calls
	rec.BatchFragments += bs.Fragments
	rec.BatchRetransmits += bs.Retransmits
}

// sendPages ships a block of pages from src to dst as one k.migPages bulk
// transfer of pipelined fragments.
func sendPages(env *sim.Env, src, dst *Kernel, p *Process, rec *MigrationRecord, pages, pageBytes int) error {
	_, bs, err := kMigPages.CallBulk(src.ep, env, dst.host, migPagesArgs{
		PID: p.pid, Pages: pages,
	}, 32, pages*pageBytes, rpc.BulkOut)
	if err != nil {
		return err
	}
	noteBatch(rec, bs)
	return nil
}

// FullCopyStrategy ships the entire resident image directly to the target
// at migration time, as in Charlotte and LOCUS. Simple, no residual
// dependency, but the process is frozen for the whole (size-proportional)
// transfer.
type FullCopyStrategy struct{}

var _ TransferStrategy = FullCopyStrategy{}

// Name implements TransferStrategy.
func (FullCopyStrategy) Name() string { return "full-copy" }

// Transfer implements TransferStrategy.
func (FullCopyStrategy) Transfer(env *sim.Env, src, dst *Kernel, p *Process, rec *MigrationRecord) error {
	pageBytes := src.params.VM.PageSize + src.params.PageWireOverhead
	pages := 0
	for _, seg := range p.space.Segments() {
		pages += seg.ResidentCount()
	}
	if pages > 0 {
		if err := sendPages(env, src, dst, p, rec, pages, pageBytes); err != nil {
			return err
		}
	}
	// Pages arrive resident on the target with their dirty bits intact, so
	// nothing is re-fetched and nothing was written to backing store.
	rec.PagesCopied = pages
	rec.VMBytes = pages * pageBytes
	return nil
}

// TargetPager implements TransferStrategy.
func (FullCopyStrategy) TargetPager(src, dst *Kernel, p *Process) vm.Pager {
	return vm.FilePager{Client: dst.fsc}
}

// CopyOnReferenceStrategy transfers only the page tables; the target pulls
// pages from the source as the process references them (Accent/Zayas).
// Migration itself is nearly instantaneous, but the process drags a
// residual dependency on the source for the rest of its life.
type CopyOnReferenceStrategy struct{}

var _ TransferStrategy = CopyOnReferenceStrategy{}

// Name implements TransferStrategy.
func (CopyOnReferenceStrategy) Name() string { return "copy-on-reference" }

// Transfer implements TransferStrategy.
func (CopyOnReferenceStrategy) Transfer(env *sim.Env, src, dst *Kernel, p *Process, rec *MigrationRecord) error {
	// Ship page tables only: a few words per page.
	tableBytes := p.space.TotalPages() * 8
	if tableBytes > 0 {
		if err := src.cluster.net.Send(env, tableBytes); err != nil {
			return err
		}
	}
	rec.VMBytes = tableBytes
	rec.Residual = true
	for _, seg := range p.space.Segments() {
		seg.InvalidateAll()
	}
	return nil
}

// TargetPager implements TransferStrategy: faults pull pages from the
// source host.
func (CopyOnReferenceStrategy) TargetPager(src, dst *Kernel, p *Process) vm.Pager {
	p.mig.cor = corPager{src: src, dst: dst, pid: p.pid}
	return &p.mig.cor
}

// PreCopyStrategy is the V System's design: copy the address space while
// the process keeps running, then re-copy the pages dirtied during the
// copy, repeating until the dirty set is small; only the final pass freezes
// the process. Total work grows (pages are copied more than once) but the
// freeze time shrinks.
type PreCopyStrategy struct {
	// RedirtyPagesPerSec models how fast the still-running process dirties
	// pages during the background copy passes.
	RedirtyPagesPerSec float64
}

// preCopyFreezePages ends pre-copying when the dirty set is at most this
// many pages; preCopyMaxPasses bounds the number of pre-copy passes.
const (
	preCopyFreezePages = 16
	preCopyMaxPasses   = 5
)

var _ TransferStrategy = PreCopyStrategy{}

// Name implements TransferStrategy.
func (PreCopyStrategy) Name() string { return "pre-copy" }

// Transfer implements TransferStrategy.
func (s PreCopyStrategy) Transfer(env *sim.Env, src, dst *Kernel, p *Process, rec *MigrationRecord) error {
	pageBytes := src.params.VM.PageSize + src.params.PageWireOverhead

	// First pass: all resident pages, while the process "runs".
	toCopy := 0
	for _, seg := range p.space.Segments() {
		toCopy += seg.ResidentCount()
	}
	copied := 0
	for pass := 0; pass < preCopyMaxPasses && toCopy > preCopyFreezePages; pass++ {
		t0 := env.Now()
		if err := sendPages(env, src, dst, p, rec, toCopy, pageBytes); err != nil {
			return err
		}
		copied += toCopy
		// Pages dirtied during this pass must be re-sent; the pass time is
		// measured, because pipelining makes a per-page estimate wrong.
		redirtied := int(s.RedirtyPagesPerSec * (env.Now() - t0).Seconds())
		if redirtied > toCopy {
			redirtied = toCopy
		}
		toCopy = redirtied
	}
	// Final, frozen pass.
	tFreeze := env.Now()
	if toCopy > 0 {
		if err := sendPages(env, src, dst, p, rec, toCopy, pageBytes); err != nil {
			return err
		}
		copied += toCopy
	}
	rec.Freeze = env.Now() - tFreeze
	rec.PagesCopied = copied
	rec.VMBytes = copied * pageBytes
	return nil
}

// TargetPager implements TransferStrategy.
func (PreCopyStrategy) TargetPager(src, dst *Kernel, p *Process) vm.Pager {
	return vm.FilePager{Client: dst.fsc}
}
