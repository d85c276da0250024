package fs

import (
	"errors"
	"fmt"
	"time"

	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// Wire message types for the fs.* services. They stay unexported: only this
// package speaks the protocol.
type (
	openArgs struct {
		Stream      StreamID // the client-allocated id of the stream being opened
		Path        string
		Mode        OpenMode
		Host        rpc.HostID
		Create      bool
		Truncate    bool
		Uncacheable bool
	}
	openReply struct {
		FID       FileID
		Size      int
		Version   uint64
		Cacheable bool
		// SourceDone (stream moves only) reports that the source host
		// holds no other open of the file.
		SourceDone bool
	}
	closeArgs struct {
		Stream StreamID
		FID    FileID
		Mode   OpenMode
		Host   rpc.HostID
		// Dirty reports whether the closing client retains dirty blocks
		// under delayed write-back; the server must recall them before
		// another host reads the file.
		Dirty bool
	}
	readArgs struct {
		FID   FileID
		Block int
	}
	readReply struct {
		Data []byte
	}
	writeArgs struct {
		FID     FileID
		Block   int
		Data    []byte // nil: the N bytes are zeros and travel as a length only
		N       int
		Offset  int // byte offset of the write within the block
		NewSize int // -1 to keep current size
	}
	writeReply struct {
		Version uint64
		Size    int
	}
	// Bulk-transfer messages: one request covers a contiguous byte range
	// spanning many blocks; the payload travels as pipelined fragments
	// (rpc.CallBulk) rather than one message per block.
	writeBulkArgs struct {
		FID     FileID
		Off     int64
		Data    []byte // nil: the N bytes are zeros and travel as a length only
		N       int
		NewSize int // -1 to keep current size
	}
	readBulkArgs struct {
		FID FileID
		Off int64
		N   int
	}
	statArgs struct {
		Path string
	}
	statReply struct {
		FID     FileID
		Size    int
		Version uint64
		MTime   time.Duration
	}
	removeArgs struct {
		Path string
	}
	offsetArgs struct {
		Stream StreamID
		FID    FileID
		// Advance the offset by Delta, or if Set >= 0 assign it.
		Delta int64
		Set   int64
	}
	offsetReply struct {
		Old  int64
		Size int
	}
	migrateStreamArgs struct {
		Stream StreamID
		FID    FileID
		Mode   OpenMode
		From   rpc.HostID
		To     rpc.HostID
		Offset int64 // current client-side offset, adopted by the server
		Share  bool  // stream now spans hosts: shadow the offset
	}
	lockArgs struct {
		Path string
	}
	// Client callback arguments (server -> client).
	cacheCallbackArgs struct {
		FID FileID
	}
	// attrReply is the client's answer to a cached-attribute fetch.
	attrReply struct {
		Size  int
		MTime time.Duration
	}
)

// The fs.* services, and the callbacks a server makes to client caches.
var (
	fsOpen          = rpc.NewService[openArgs, openReply]("fs.open")
	fsClose         = rpc.NewService[closeArgs, bool]("fs.close")
	fsRead          = rpc.NewService[readArgs, readReply]("fs.read")
	fsWrite         = rpc.NewService[writeArgs, writeReply]("fs.write")
	fsReadBulk      = rpc.NewService[readBulkArgs, struct{}]("fs.readBulk")
	fsWriteBulk     = rpc.NewService[writeBulkArgs, writeReply]("fs.writeBulk")
	fsStat          = rpc.NewService[statArgs, statReply]("fs.stat")
	fsRemove        = rpc.NewService[removeArgs, struct{}]("fs.remove")
	fsOffset        = rpc.NewService[offsetArgs, offsetReply]("fs.offset")
	fsMigrateStream = rpc.NewService[migrateStreamArgs, openReply]("fs.migrateStream")
	fsLock          = rpc.NewService[lockArgs, struct{}]("fs.lock")
	fsUnlock        = rpc.NewService[lockArgs, struct{}]("fs.unlock")
	fscFlush        = rpc.NewService[cacheCallbackArgs, struct{}]("fsc.flush")
	fscDisable      = rpc.NewService[cacheCallbackArgs, struct{}]("fsc.disable")
	fscAttr         = rpc.NewService[cacheCallbackArgs, attrReply]("fsc.attr")
)

// file is the server-side state of one file. Its contents are the stored
// prefix data plus a logical size: bytes in [len(data), size) are zero and
// take no memory, so a swap file of flushed pages or a SeedSized input costs
// nothing to hold. Only readAt, writeAt and setSize touch data.
type file struct {
	ino        int
	path       string
	data       []byte
	size       int
	version    uint64
	mtime      time.Duration // virtual time of the last server-side change
	neverCache bool          // backing-store and similar files are never client-cached
	cacheable  bool
	opens      openTable
	lastWriter rpc.HostID // host that may hold dirty blocks in its cache
	touched    []uint64   // bitset of blocks read or written since seeding (nil: none yet)
	// mu serializes open/close/migrate consistency actions on this file.
	// An open that blocks mid-handler issuing cache callbacks has not yet
	// registered its reference; without the monitor lock a concurrent open
	// or stream migration would read the stale open table and re-enable
	// caching the blocked open is about to rely on being disabled.
	mu *sim.Resource
}

// readAt returns a copy of the stored bytes of [off, off+n) and the range's
// logical length, clamped at end of file; the bytes past the copy are zeros.
func (fl *file) readAt(off, n int) ([]byte, int) {
	end := min(off+n, fl.size)
	if end <= off {
		return nil, 0
	}
	var stored []byte
	if off < len(fl.data) {
		stored = append(stored, fl.data[off:min(end, len(fl.data))]...)
	}
	return stored, end - off
}

// writeAt puts n bytes at off, growing the file to cover them: data, or when
// data is nil, zeros — which only clear what is already stored.
func (fl *file) writeAt(off int, data []byte, n int) {
	end := off + n
	if data == nil {
		if off < len(fl.data) {
			clear(fl.data[off:min(end, len(fl.data))])
		}
	} else {
		if end > len(fl.data) {
			fl.data = append(fl.data, make([]byte, end-len(fl.data))...)
		}
		copy(fl.data[off:], data)
	}
	if end > fl.size {
		fl.size = end
	}
}

// touch marks block as touched and reports whether it was cold (never yet
// touched: still on disk).
func (fl *file) touch(block int) bool {
	w, bit := block/64, uint64(1)<<(block%64)
	if w >= len(fl.touched) {
		fl.touched = append(fl.touched, make([]uint64, w+1-len(fl.touched))...)
	}
	cold := fl.touched[w]&bit == 0
	fl.touched[w] |= bit
	return cold
}

// setSize truncates or extends the file to n bytes; an extension stores
// nothing.
func (fl *file) setSize(n int) {
	if n < len(fl.data) {
		fl.data = fl.data[:n]
	}
	fl.size = n
}

// applyWrite is where both write handlers end: store the bytes, settle the
// size (newSize < 0 keeps whatever the write left) and stamp the change.
func (fl *file) applyWrite(now time.Duration, off int, data []byte, n, newSize int) writeReply {
	fl.writeAt(off, data, n)
	if newSize >= 0 {
		fl.setSize(newSize)
	}
	fl.version++
	fl.mtime = now
	return writeReply{Version: fl.version, Size: fl.size}
}

// ServerStats summarizes one server's activity. Cluster.MetricsSnapshot
// publishes each tagged field as the gauge fsserver.<host>.<tag>.
type ServerStats struct {
	Lookups     uint64 `metric:"lookups"`
	BlocksRead  uint64 `metric:"blocks_read"`
	BlocksWrite uint64 `metric:"blocks_written"`
	ColdReads   uint64 `metric:"cold_reads"`
	FlushRecall uint64 `metric:"flush_recalls"`  // consistency callbacks asking a client to flush
	Disables    uint64 `metric:"cache_disables"` // times caching was disabled for a file
	BulkWrites  uint64 // fs.writeBulk batches served
	BulkReads   uint64 // fs.readBulk batches served
}

// Server is one Sprite file server: the authority for the files in its
// domain, the consistency point for client caches, and the home of shadow
// stream offsets.
type Server struct {
	fs   *FS
	host rpc.HostID
	ep   *rpc.Endpoint // the caller of consistency callbacks to client caches
	cpu  *sim.Resource
	disk *sim.Resource

	files   map[string]*file
	byID    map[FileID]*file
	inoSeq  int
	offsets map[StreamID]int64
	locks   map[string]*sim.Resource
	pipes   map[int]*pipeState

	stats ServerStats
}

func newServer(f *FS, host rpc.HostID) *Server {
	ep := f.transport.Register(host)
	srv := &Server{
		fs:      f,
		host:    host,
		ep:      ep,
		cpu:     sim.NewResource(f.sim, 1),
		disk:    sim.NewResource(f.sim, 1),
		files:   make(map[string]*file),
		byID:    make(map[FileID]*file),
		offsets: make(map[StreamID]int64),
		locks:   make(map[string]*sim.Resource),
		pipes:   make(map[int]*pipeState),
	}
	fsOpen.Handle(ep, srv.handleOpen)
	fsClose.Handle(ep, srv.handleClose)
	fsRead.Handle(ep, srv.handleRead)
	fsWrite.Handle(ep, srv.handleWrite)
	fsReadBulk.Handle(ep, srv.handleReadBulk)
	fsWriteBulk.Handle(ep, srv.handleWriteBulk)
	fsStat.Handle(ep, srv.handleStat)
	fsRemove.Handle(ep, srv.handleRemove)
	fsOffset.Handle(ep, srv.handleOffset)
	fsMigrateStream.Handle(ep, srv.handleMigrateStream)
	fsLock.Handle(ep, srv.handleLock)
	fsUnlock.Handle(ep, srv.handleUnlock)
	fsRename.Handle(ep, srv.handleRename)
	fsReadDir.Handle(ep, srv.handleReadDir)
	fsPipeCreate.Handle(ep, srv.handlePipeCreate)
	fsPipeRead.Handle(ep, srv.handlePipeRead)
	fsPipeWrite.Handle(ep, srv.handlePipeWrite)
	fsPipeClose.Handle(ep, srv.handlePipeClose)
	fsPipeMigrate.Handle(ep, srv.handlePipeMigrate)
	return srv
}

// Stats returns a copy of the server's counters.
func (s *Server) Stats() ServerStats { return s.stats }

// CPUBusy returns total server CPU busy time (the pmake bottleneck metric).
func (s *Server) CPUBusy() time.Duration { return s.cpu.BusyTime() }

// CPUWait returns cumulative time requests queued for the server CPU.
func (s *Server) CPUWait() time.Duration { return s.cpu.WaitTime() }

// FileCount returns the number of files in the server's domain.
func (s *Server) FileCount() int { return len(s.files) }

func (s *Server) chargeCPU(env *sim.Env, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	return s.cpu.Use(env, d)
}

func (s *Server) lookup(fid FileID) (*file, error) {
	fl, ok := s.byID[fid]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, fid)
	}
	return fl, nil
}

func (s *Server) create(path string, neverCache bool) *file {
	s.inoSeq++
	fl := &file{
		ino:        s.inoSeq,
		path:       path,
		version:    1,
		neverCache: neverCache,
		cacheable:  !neverCache,
		mu:         sim.NewResource(s.fs.sim, 1),
	}
	s.files[path] = fl
	s.byID[FileID{Server: s.host, Ino: fl.ino}] = fl
	return fl
}

func (s *Server) handleOpen(env *sim.Env, from rpc.HostID, a openArgs) (openReply, int, error) {
	if err := s.chargeCPU(env, s.fs.params.NameLookupCPU); err != nil {
		return openReply{}, 0, err
	}
	s.stats.Lookups++
	fl, exists := s.files[a.Path]
	switch {
	case !exists && a.Create:
		fl = s.create(a.Path, a.Uncacheable)
	case !exists:
		return openReply{}, 0, fmt.Errorf("%w: %s", ErrNotFound, a.Path)
	}

	if err := fl.mu.Acquire(env); err != nil {
		return openReply{}, 0, err
	}
	defer fl.mu.Release()
	// Consistency first: recall dirty blocks or disable caches as needed
	// [NWO88]. This must precede truncation — a recalled flush of the
	// previous writer's dirty blocks must not resurrect data into the
	// freshly truncated file.
	if err := s.ensureConsistentOpen(env, fl, a.Host, a.Mode); err != nil {
		return openReply{}, 0, err
	}
	if exists && a.Create && a.Truncate {
		fl.setSize(0)
		fl.version++
		fl.mtime = env.Now()
	}
	if !exists && a.Create {
		fl.mtime = env.Now()
	}

	fl.opens.add(a.Stream, a.Host, a.Mode)
	reply := openReply{
		FID:       FileID{Server: s.host, Ino: fl.ino},
		Size:      fl.size,
		Version:   fl.version,
		Cacheable: fl.cacheable,
	}
	return reply, 64, nil
}

// ensureConsistentOpen performs Sprite's open-time consistency actions for
// an open of fl by host in the given mode.
func (s *Server) ensureConsistentOpen(env *sim.Env, fl *file, host rpc.HostID, mode OpenMode) error {
	conflict := false
	if !fl.neverCache {
		if mode.canWrite() && fl.opens.heldOther(host) {
			conflict = true
		}
		if fl.opens.writersOn(host) > 0 {
			conflict = true
		}
	}
	switch {
	case fl.neverCache:
		fl.cacheable = false
	case conflict:
		if fl.cacheable {
			s.stats.Disables++
		}
		fl.cacheable = false
		// Recall dirty data and shoot down every cache that may hold the
		// file, including the opener's own.
		targets := fl.opens.hostsOther(rpc.NoHost)
		if fl.lastWriter != rpc.NoHost {
			targets = appendUnique(targets, fl.lastWriter)
		}
		targets = appendUnique(targets, host)
		fid := FileID{Server: s.host, Ino: fl.ino}
		for _, t := range targets {
			if _, err := fscDisable.Call(s.ep, env, t, cacheCallbackArgs{FID: fid}, 32); err != nil {
				// A crashed target has no cache left to disable; its open
				// state is scrubbed by the crash path.
				if errors.Is(err, rpc.ErrHostDown) {
					continue
				}
				return err
			}
		}
		fl.lastWriter = rpc.NoHost
	default:
		fl.cacheable = true
		if fl.lastWriter != rpc.NoHost && fl.lastWriter != host {
			// Another host's cache holds the current data; recall it so
			// this open observes it.
			s.stats.FlushRecall++
			fid := FileID{Server: s.host, Ino: fl.ino}
			if _, err := fscFlush.Call(s.ep, env, fl.lastWriter, cacheCallbackArgs{FID: fid}, 32); err != nil {
				if !errors.Is(err, rpc.ErrHostDown) {
					return err
				}
			}
			fl.lastWriter = rpc.NoHost
		}
	}
	return nil
}

// handleClose drops the stream's entry for the closing host and reports
// whether that host holds no other open of the file.
func (s *Server) handleClose(env *sim.Env, from rpc.HostID, a closeArgs) (bool, int, error) {
	fl, err := s.lookup(a.FID)
	if err != nil {
		return false, 0, err
	}
	if err := fl.mu.Acquire(env); err != nil {
		return false, 0, err
	}
	defer fl.mu.Release()
	// The closing writer's cache may retain dirty blocks under delayed
	// write-back.
	if _, open := fl.opens.search(a.Stream, a.Host); open && a.Mode.canWrite() && !fl.neverCache && a.Dirty {
		fl.lastWriter = a.Host
	}
	fl.opens.drop(a.Stream, a.Host)
	return len(fl.opens.onHost(a.Host)) == 0, 16, nil
}

func (s *Server) handleRead(env *sim.Env, from rpc.HostID, a readArgs) (readReply, int, error) {
	fl, err := s.lookup(a.FID)
	if err != nil {
		return readReply{}, 0, err
	}
	if err := s.chargeCPU(env, s.fs.params.BlockServerCPU); err != nil {
		return readReply{}, 0, err
	}
	if fl.touch(a.Block) {
		// Cold block: charge a disk transfer.
		s.stats.ColdReads++
		if s.fs.params.DiskPerBlock > 0 {
			if err := s.disk.Use(env, s.fs.params.DiskPerBlock); err != nil {
				return readReply{}, 0, err
			}
		}
	}
	s.stats.BlocksRead++
	bs := s.fs.params.BlockSize
	data, n := fl.readAt(a.Block*bs, bs)
	return readReply{Data: data}, 16 + n, nil
}

func (s *Server) handleWrite(env *sim.Env, from rpc.HostID, a writeArgs) (writeReply, int, error) {
	fl, err := s.lookup(a.FID)
	if err != nil {
		return writeReply{}, 0, err
	}
	if err := s.chargeCPU(env, s.fs.params.BlockServerCPU); err != nil {
		return writeReply{}, 0, err
	}
	s.stats.BlocksWrite++
	fl.touch(a.Block)
	lo := a.Block*s.fs.params.BlockSize + a.Offset
	return fl.applyWrite(env.Now(), lo, a.Data, a.N, a.NewSize), 32, nil
}

// bulkCPU charges the per-batch server cost for a bulk transfer covering
// `blocks` blocks: one BlockServerCPU for the request as a whole, plus the
// (much cheaper) BulkPerBlockCPU marginal cost per block.
func (s *Server) bulkCPU(env *sim.Env, blocks int) error {
	if err := s.chargeCPU(env, s.fs.params.BlockServerCPU); err != nil {
		return err
	}
	if blocks > 1 {
		return s.chargeCPU(env, time.Duration(blocks-1)*s.fs.params.BulkPerBlockCPU)
	}
	return nil
}

// handleWriteBulk applies one contiguous multi-block write delivered through
// the bulk-transfer path.
func (s *Server) handleWriteBulk(env *sim.Env, from rpc.HostID, a writeBulkArgs) (writeReply, int, error) {
	fl, err := s.lookup(a.FID)
	if err != nil {
		return writeReply{}, 0, err
	}
	bs := s.fs.params.BlockSize
	lo := int(a.Off)
	hi := lo + a.N
	first := lo / bs
	last := (hi - 1) / bs
	if a.N == 0 {
		last = first
	}
	if err := s.bulkCPU(env, last-first+1); err != nil {
		return writeReply{}, 0, err
	}
	s.stats.BulkWrites++
	for b := first; b <= last; b++ {
		fl.touch(b)
	}
	s.stats.BlocksWrite += uint64(last - first + 1)
	return fl.applyWrite(env.Now(), lo, a.Data, a.N, a.NewSize), 32, nil
}

// handleReadBulk serves one contiguous multi-block read. The reply payload
// streams back to the caller as pipelined fragments and is a length only:
// page contents are not modelled, so the one caller (the readahead pager)
// needs the transfer charged, not the bytes.
func (s *Server) handleReadBulk(env *sim.Env, from rpc.HostID, a readBulkArgs) (struct{}, int, error) {
	fl, err := s.lookup(a.FID)
	if err != nil {
		return struct{}{}, 0, err
	}
	bs := s.fs.params.BlockSize
	lo := int(a.Off)
	hi := max(lo, min(lo+a.N, fl.size))
	first := lo / bs
	last := first
	if hi > lo {
		last = (hi - 1) / bs
	}
	if err := s.bulkCPU(env, last-first+1); err != nil {
		return struct{}{}, 0, err
	}
	s.stats.BulkReads++
	// Cold blocks still pay their disk transfers, back to back: a bulk read
	// of untouched data is one long sequential disk run.
	var cold int
	for b := first; b <= last; b++ {
		if fl.touch(b) {
			cold++
		}
	}
	if cold > 0 {
		s.stats.ColdReads += uint64(cold)
		if s.fs.params.DiskPerBlock > 0 {
			if err := s.disk.Use(env, time.Duration(cold)*s.fs.params.DiskPerBlock); err != nil {
				return struct{}{}, 0, err
			}
		}
	}
	s.stats.BlocksRead += uint64(last - first + 1)
	return struct{}{}, 16 + hi - lo, nil
}

func (s *Server) handleStat(env *sim.Env, from rpc.HostID, a statArgs) (statReply, int, error) {
	if err := s.chargeCPU(env, s.fs.params.NameLookupCPU); err != nil {
		return statReply{}, 0, err
	}
	s.stats.Lookups++
	fl, ok := s.files[a.Path]
	if !ok {
		return statReply{}, 0, fmt.Errorf("%w: %s", ErrNotFound, a.Path)
	}
	size := fl.size
	mtime := fl.mtime
	// Under delayed write-back the last writer's cache may hold newer
	// attributes than the server; Sprite servers fetch cached attributes
	// from that client on stat.
	if fl.lastWriter != rpc.NoHost && fl.lastWriter != from {
		fid := FileID{Server: s.host, Ino: fl.ino}
		if ar, err := fscAttr.Call(s.ep, env, fl.lastWriter, cacheCallbackArgs{FID: fid}, 32); err == nil {
			size = max(size, ar.Size)
			mtime = max(mtime, ar.MTime)
		}
	}
	return statReply{
		FID:     FileID{Server: s.host, Ino: fl.ino},
		Size:    size,
		Version: fl.version,
		MTime:   mtime,
	}, 48, nil
}

func (s *Server) handleRemove(env *sim.Env, from rpc.HostID, a removeArgs) (struct{}, int, error) {
	if err := s.chargeCPU(env, s.fs.params.NameLookupCPU); err != nil {
		return struct{}{}, 0, err
	}
	s.stats.Lookups++
	fl, ok := s.files[a.Path]
	if !ok {
		return struct{}{}, 0, fmt.Errorf("%w: %s", ErrNotFound, a.Path)
	}
	delete(s.files, a.Path)
	delete(s.byID, FileID{Server: s.host, Ino: fl.ino})
	return struct{}{}, 16, nil
}

func (s *Server) handleOffset(env *sim.Env, from rpc.HostID, a offsetArgs) (offsetReply, int, error) {
	fl, err := s.lookup(a.FID)
	if err != nil {
		return offsetReply{}, 0, err
	}
	old := s.offsets[a.Stream]
	if a.Set >= 0 {
		s.offsets[a.Stream] = a.Set
	} else {
		s.offsets[a.Stream] = old + a.Delta
	}
	return offsetReply{Old: old, Size: fl.size}, 32, nil
}

func (s *Server) handleMigrateStream(env *sim.Env, from rpc.HostID, a migrateStreamArgs) (openReply, int, error) {
	fl, err := s.lookup(a.FID)
	if err != nil {
		return openReply{}, 0, err
	}
	if err := fl.mu.Acquire(env); err != nil {
		return openReply{}, 0, err
	}
	defer fl.mu.Release()
	// Move the stream's entry from the source (NoHost when the source keeps
	// references) to the target host.
	fl.opens.drop(a.Stream, a.From)
	if err := s.ensureConsistentOpen(env, fl, a.To, a.Mode); err != nil {
		return openReply{}, 0, err
	}
	fl.opens.add(a.Stream, a.To, a.Mode)
	if a.Share {
		// The access position is now shared across hosts: the server
		// becomes its home (a shadow stream) [Wel90].
		if _, exists := s.offsets[a.Stream]; !exists {
			s.offsets[a.Stream] = a.Offset
		}
	}
	return openReply{
		FID:        a.FID,
		Size:       fl.size,
		Version:    fl.version,
		Cacheable:  fl.cacheable,
		SourceDone: a.From != rpc.NoHost && len(fl.opens.onHost(a.From)) == 0,
	}, 64, nil
}

func (s *Server) handleLock(env *sim.Env, from rpc.HostID, a lockArgs) (struct{}, int, error) {
	res, ok := s.locks[a.Path]
	if !ok {
		res = sim.NewResource(s.fs.sim, 1)
		s.locks[a.Path] = res
	}
	if err := res.Acquire(env); err != nil {
		return struct{}{}, 0, err
	}
	return struct{}{}, 8, nil
}

func (s *Server) handleUnlock(env *sim.Env, from rpc.HostID, a lockArgs) (struct{}, int, error) {
	if res, ok := s.locks[a.Path]; ok {
		res.Release()
	}
	return struct{}{}, 8, nil
}

func appendUnique(hosts []rpc.HostID, h rpc.HostID) []rpc.HostID {
	for _, x := range hosts {
		if x == h {
			return hosts
		}
	}
	return append(hosts, h)
}
