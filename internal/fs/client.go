package fs

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"sprite/internal/rpc"
	"sprite/internal/sim"
)

type cacheKey struct {
	fid   FileID
	block int
}

type cacheBlock struct {
	key   cacheKey
	data  []byte // BlockSize bytes, or nil: the block is all zeros
	dirty bool
	gen   uint32      // writes applied, wrapping; see flushBlock
	prev  *cacheBlock // LRU ring links; nil once the block leaves the cache
	next  *cacheBlock
}

// Client is one host's window onto the shared file system: it resolves
// paths through the prefix table, talks RPC to the owning server, and runs
// the host's block cache.
type Client struct {
	fs   *FS
	host rpc.HostID
	ep   *rpc.Endpoint

	blocks map[cacheKey]*cacheBlock
	lru    cacheBlock     // sentinel of the ring of c.blocks; lru.next = most recently used
	dirty  map[FileID]int // dirty blocks per file; see setDirty
	files  map[FileID]fileMeta

	// prefixCache is the client's own prefix table, filled by broadcast on
	// the first lookup of each domain (Sprite's prefix-table protocol).
	prefixCache *Namespace

	// pendingCloses holds close RPCs that failed in transit (server
	// unreachable: crash window, partition) for retry at the next Open.
	// Without the retry the server's open entry leaks until an epoch
	// scrub, and a host that never reboots never gets scrubbed.
	pendingCloses []pendingClose

	// streamSeq allocates stream IDs host-locally, so an Open never writes
	// state another shard owns. The host id is folded into the high bits so
	// the IDs stay unique cluster-wide.
	streamSeq uint64

	// pendingRec queues destination-cache reconciliations deferred by
	// MoveStream under host confinement: the migrating process applies them
	// itself once it lands on the target's shard (see ApplyReconciles).
	pendingRec []Reconcile
}

// Reconcile is one deferred destination-cache update from a stream
// migration: under host confinement the source host must not touch the
// destination client's tables directly, so MoveStream records what the
// destination needs to learn and the migrated process applies it after its
// activity has rehomed to the target's shard.
type Reconcile struct {
	FID       FileID
	Version   uint64
	Cacheable bool
	Size      int
}

// fileMeta is what a client knows of one file. Servers number versions
// from 1, so a zero version means none was seen; an unknown size reads as
// zero, which never exceeds a real one, so no presence bit is needed.
type fileMeta struct {
	ver     uint64
	size    int
	mtime   time.Duration // last local cached write
	noCache bool
}

// pendingClose is one queued close retry, tagged with the client's boot
// epoch at failure time: a reboot voids the retry (the server scrubs the
// dead epoch's entries itself, and a late close must not debit a fresh
// post-reboot open).
type pendingClose struct {
	args  closeArgs
	epoch rpc.Epoch
}

func newClient(f *FS, host rpc.HostID) *Client {
	c := &Client{
		fs:     f,
		host:   host,
		ep:     f.transport.Register(host),
		blocks: make(map[cacheKey]*cacheBlock),
		dirty:  make(map[FileID]int),
		files:  make(map[FileID]fileMeta),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	fscFlush.Handle(c.ep, c.handleFlushCallback)
	fscDisable.Handle(c.ep, c.handleDisableCallback)
	fscAttr.Handle(c.ep, c.handleAttrCallback)
	return c
}

// Host returns the client's host id.
func (c *Client) Host() rpc.HostID { return c.host }

// DirtyBlocks returns the number of dirty blocks held in the cache.
func (c *Client) DirtyBlocks() int {
	n := 0
	for _, k := range c.dirty {
		n += k
	}
	return n
}

// CachedBlocks returns the number of blocks held in the cache.
func (c *Client) CachedBlocks() int { return len(c.blocks) }

// server resolves a path to its file server through the client's cached
// prefix table; outside the simulation's zero-cost setup phase, a miss is
// resolved by broadcasting a prefix query to which the owning server
// responds (Sprite's prefix-table protocol). The authoritative table is
// consulted only to decide who answers; the client pays the broadcast.
func (c *Client) server(path string) (rpc.HostID, error) {
	return c.fs.ns.Lookup(path)
}

// lookupServer is the charged variant used from activities: a prefix-cache
// miss costs one broadcast plus the owner's reply before being cached.
func (c *Client) lookupServer(env *sim.Env, path string) (rpc.HostID, error) {
	if c.prefixCache == nil {
		c.prefixCache = NewNamespace()
	}
	host, err := c.fs.ns.Lookup(path)
	if err != nil {
		return rpc.NoHost, err
	}
	// A cached prefix that agrees with the authority is a free hit. A
	// cached shorter prefix shadowing an undiscovered longer one is
	// detected by the server redirecting the request (charged below as a
	// fresh broadcast), exactly like an outright miss.
	if cached, cerr := c.prefixCache.Lookup(path); cerr == nil && cached == host {
		return host, nil
	}
	// One broadcast query + one reply from the owning server.
	if err := c.fs.transport.Network().Send(env, 32+len(path)); err != nil {
		return rpc.NoHost, err
	}
	if err := c.fs.transport.Network().Send(env, 32); err != nil {
		return rpc.NoHost, err
	}
	c.fs.m.prefixQueries.IncSlot(sim.WorkerSlot(env))
	prefix := c.fs.ns.prefixFor(path)
	c.prefixCache.AddPrefix(prefix, host)
	return host, nil
}

// OpenOptions modify Open behaviour.
type OpenOptions struct {
	// Create the file if it does not exist.
	Create bool
	// Truncate an existing file to zero length (with Create).
	Truncate bool
	// Uncacheable marks the file never-client-cached (backing store).
	Uncacheable bool
}

// transportFailed reports whether an RPC error means the server never
// processed the call (as opposed to processing it and returning an error).
func transportFailed(err error) bool {
	return errors.Is(err, rpc.ErrHostDown) || errors.Is(err, rpc.ErrTimeout) || errors.Is(err, rpc.ErrNoService)
}

// drainCloses retries queued close RPCs. A server response — success or
// error — settles an entry; another transport failure keeps it for later.
// Entries from a previous boot epoch are dropped: the epoch scrub already
// reclaimed them on the server.
func (c *Client) drainCloses(env *sim.Env) {
	if len(c.pendingCloses) == 0 {
		return
	}
	keep := c.pendingCloses[:0]
	for _, p := range c.pendingCloses {
		if p.epoch != c.ep.Epoch() {
			continue
		}
		p.args.Dirty = c.hasDirty(p.args.FID)
		if _, err := fsClose.Call(c.ep, env, p.args.FID.Server, p.args, 32); err != nil && transportFailed(err) {
			keep = append(keep, p)
		}
	}
	c.pendingCloses = keep
}

// Settle retries close RPCs that failed in transit, for callers that know
// the network healed but will not Open again (a daemon's shutdown path).
// Best-effort: entries whose server is still unreachable stay queued.
func (c *Client) Settle(env *sim.Env) { c.drainCloses(env) }

// Open opens path in the given mode and returns a new stream.
func (c *Client) Open(env *sim.Env, path string, mode OpenMode, opts OpenOptions) (*Stream, error) {
	c.drainCloses(env)
	srvHost, err := c.lookupServer(env, path)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", path, err)
	}
	id := c.nextStreamID()
	r, err := fsOpen.Call(c.ep, env, srvHost, openArgs{
		Stream:      id,
		Path:        path,
		Mode:        mode,
		Host:        c.host,
		Create:      opts.Create,
		Truncate:    opts.Truncate,
		Uncacheable: opts.Uncacheable,
	}, 64+len(path))
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", path, err)
	}
	sameVersion := c.files[r.FID].ver == r.Version
	c.noteVersion(r.FID, r.Version, r.Cacheable)
	// Under delayed write-back this client may hold dirty blocks that
	// extend the file beyond the server's idea of its size; keep the larger
	// size in that case. Any version change already dropped the cache, so
	// the server is then authoritative.
	if sameVersion && c.hasDirty(r.FID) {
		c.edit(r.FID, func(m *fileMeta) { m.size = max(m.size, r.Size) })
	} else {
		c.edit(r.FID, func(m *fileMeta) { m.size = r.Size })
	}
	st := &Stream{
		ID:        id,
		FID:       r.FID,
		Path:      path,
		Mode:      mode,
		size:      c.files[r.FID].size,
		cacheable: r.Cacheable,
	}
	st.addRefs(c.host, 1)
	return st, nil
}

// nextStreamID allocates a stream ID from this host's own sequence.
func (c *Client) nextStreamID() StreamID {
	c.streamSeq++
	return StreamID(uint64(c.host)<<32 | c.streamSeq)
}

// AppendReconciles drains the destination-cache updates deferred by
// confined stream moves into dst, right after each MoveStream; both lists
// keep their arrays.
func (c *Client) AppendReconciles(dst []Reconcile) []Reconcile {
	dst = append(dst, c.pendingRec...)
	c.pendingRec = c.pendingRec[:0]
	return dst
}

// ApplyReconciles applies deferred destination-cache updates and returns rs
// emptied, keeping its array. It must run on this client's home shard: the
// migrated process calls it right after rehoming to the target host, and an
// aborted migration's target and source each apply the records moved for
// them.
func (c *Client) ApplyReconciles(rs []Reconcile) []Reconcile {
	for _, r := range rs {
		c.noteVersion(r.FID, r.Version, r.Cacheable)
		c.edit(r.FID, func(m *fileMeta) { m.size = r.Size })
	}
	return rs[:0]
}

// noteVersion reconciles the client's cache with the server's version: a
// version change invalidates all cached blocks for the file.
func (c *Client) noteVersion(fid FileID, version uint64, cacheable bool) {
	m := c.files[fid]
	if m.ver != 0 && m.ver != version {
		c.dropFile(fid)
	}
	m.ver, m.noCache = version, !cacheable
	c.files[fid] = m
}

// edit applies f to fid's entry in c.files.
func (c *Client) edit(fid FileID, f func(*fileMeta)) {
	m := c.files[fid]
	f(&m)
	c.files[fid] = m
}

// note is edit for what a write through st teaches this client. A host
// that holds no reference to st updates an entry it has but makes none: a
// migration source still flushing pages after the backing stream moved
// away, and forget dropped its entry, keeps none.
func (c *Client) note(st *Stream, f func(*fileMeta)) {
	if _, ok := c.files[st.FID]; ok || st.RefsOn(c.host) > 0 {
		c.edit(st.FID, f)
	}
}

// Close drops one reference held by this host. The last reference on the
// host notifies the server; the last reference anywhere closes the stream.
func (c *Client) Close(env *sim.Env, st *Stream) error {
	if st.closed || st.RefsOn(c.host) <= 0 {
		return ErrBadStream
	}
	if st.shift(c.host, rpc.NoHost, 1); st.RefsOn(c.host) == 0 {
		if st.pipe {
			if err := c.pipeClose(env, st); err != nil {
				return fmt.Errorf("close %s: %w", st.Path, err)
			}
		} else if done, err := fsClose.Call(c.ep, env, st.FID.Server, closeArgs{
			Stream: st.ID, FID: st.FID, Mode: st.Mode, Host: c.host, Dirty: c.hasDirty(st.FID),
		}, 32); err != nil {
			if transportFailed(err) {
				// The server may never have seen the close; queue it so the
				// open entry doesn't leak server-side (retried at next Open;
				// a retry of a close the server did see drops nothing).
				c.pendingCloses = append(c.pendingCloses, pendingClose{
					args:  closeArgs{Stream: st.ID, FID: st.FID, Mode: st.Mode, Host: c.host},
					epoch: c.ep.Epoch(),
				})
			}
			return fmt.Errorf("close %s: %w", st.Path, err)
		} else if done {
			c.forget(st.FID)
		}
	}
	return nil
}

// forget drops fid's entry once this host holds no open of the file, if
// the file is uncached here: with no cached blocks to validate, the next
// Open or stream move re-learns its version and size, and the entry of a
// removed file (inode numbers are never reused) is never read again.
func (c *Client) forget(fid FileID) {
	if c.files[fid].noCache {
		delete(c.files, fid)
	}
}

// Dup adds a reference on this host (used by fork: parent and child share
// the stream and its access position in place).
func (c *Client) Dup(st *Stream) error {
	if st.closed {
		return ErrBadStream
	}
	st.addRefs(c.host, 1)
	return nil
}

// cacheEnabled reports whether reads/writes of the file may use the cache.
func (c *Client) cacheEnabled(st *Stream) bool {
	return st.cacheable && !c.files[st.FID].noCache
}

// Read reads up to n bytes at the stream's access position, advancing it.
func (c *Client) Read(env *sim.Env, st *Stream, n int) ([]byte, error) {
	data, _, err := c.read(env, st, n, true)
	return data, err
}

// ReadCount is Read for callers that discard the contents: the same cache
// decisions, server traffic and charges, but only the number of bytes read
// comes back, and a file block holding only zeros is never materialised.
func (c *Client) ReadCount(env *sim.Env, st *Stream, n int) (int, error) {
	_, got, err := c.read(env, st, n, false)
	return got, err
}

// read is Read's body; the bytes come back only when keep is set.
func (c *Client) read(env *sim.Env, st *Stream, n int, keep bool) ([]byte, int, error) {
	if st.closed || st.RefsOn(c.host) <= 0 {
		return nil, 0, ErrBadStream
	}
	if !st.Mode.canRead() {
		return nil, 0, fmt.Errorf("read %s: %w", st.Path, ErrBadStream)
	}
	if st.pipe {
		data, err := c.pipeRead(env, st, n)
		return data, len(data), err
	}
	off, size, err := c.advanceOffset(env, st, int64(n))
	if err != nil {
		return nil, 0, err
	}
	avail := int(min(int64(n), int64(size)-off))
	if avail <= 0 {
		return nil, 0, nil // EOF
	}
	return c.readRange(env, st, off, avail, keep)
}

// ReadAt reads n bytes at an explicit offset without moving the access
// position.
func (c *Client) ReadAt(env *sim.Env, st *Stream, off int64, n int) ([]byte, error) {
	data, _, err := c.readAt(env, st, off, n, true)
	return data, err
}

// ReadCountAt is to ReadAt what ReadCount is to Read: the same cache
// decisions, traffic, charges and byte counts, returning only the count.
func (c *Client) ReadCountAt(env *sim.Env, st *Stream, off int64, n int) (int, error) {
	_, got, err := c.readAt(env, st, off, n, false)
	return got, err
}

// readAt is ReadAt's body; the bytes come back only when keep is set.
func (c *Client) readAt(env *sim.Env, st *Stream, off int64, n int, keep bool) ([]byte, int, error) {
	if st.closed {
		return nil, 0, ErrBadStream
	}
	avail := int(min(int64(n), int64(c.knownSize(st))-off))
	if avail <= 0 {
		return nil, 0, nil
	}
	return c.readRange(env, st, off, avail, keep)
}

// countRead adds n to the bytes-read statistics.
func (c *Client) countRead(env *sim.Env, n int) {
	c.fs.m.bytesRead.AddSlot(sim.WorkerSlot(env), int64(n))
}

// Write writes data at the stream's access position, advancing it.
func (c *Client) Write(env *sim.Env, st *Stream, data []byte) (int, error) {
	return c.write(env, st, PageRun{Data: data})
}

// WriteZeros is Write for callers whose contents do not matter: n zero
// bytes go through the same cache decisions, server traffic and charges as
// Write, but as a length — nothing is materialised in the cache, on the
// wire or at the server.
func (c *Client) WriteZeros(env *sim.Env, st *Stream, n int) (int, error) {
	return c.write(env, st, PageRun{Zeros: n})
}

// write is Write's body: run, placed at the access position.
func (c *Client) write(env *sim.Env, st *Stream, run PageRun) (int, error) {
	if st.closed || st.RefsOn(c.host) <= 0 {
		return 0, ErrBadStream
	}
	if !st.Mode.canWrite() {
		return 0, fmt.Errorf("write %s: %w", st.Path, ErrReadOnly)
	}
	if st.pipe {
		if run.Data == nil {
			run.Data = make([]byte, run.Zeros) // a pipe buffer holds bytes
		}
		return c.pipeWrite(env, st, run.Data)
	}
	off, _, err := c.advanceOffset(env, st, int64(run.size()))
	if err != nil {
		return 0, err
	}
	run.Off = off
	if err := c.writeRun(env, st, run); err != nil {
		return 0, err
	}
	return run.size(), nil
}

// WriteAt writes data at an explicit offset without moving the access
// position.
func (c *Client) WriteAt(env *sim.Env, st *Stream, off int64, data []byte) error {
	if st.closed {
		return ErrBadStream
	}
	return c.writeRun(env, st, PageRun{Off: off, Data: data})
}

// countWritten adds n to the bytes-written statistics.
func (c *Client) countWritten(env *sim.Env, n int) {
	c.fs.m.bytesWritten.AddSlot(sim.WorkerSlot(env), int64(n))
}

// Seek sets the access position.
func (c *Client) Seek(env *sim.Env, st *Stream, off int64) error {
	if st.closed {
		return ErrBadStream
	}
	if st.pipe {
		return fmt.Errorf("seek %s: %w", st.Path, ErrBadStream)
	}
	if st.shared {
		_, err := fsOffset.Call(c.ep, env, st.FID.Server, offsetArgs{
			Stream: st.ID, FID: st.FID, Set: off, Delta: 0,
		}, 40)
		return err
	}
	st.offset = off
	return nil
}

// advanceOffset reserves [old, old+delta) of the access position, going to
// the I/O server when the stream is shared, and returns the old position
// and the current file size.
func (c *Client) advanceOffset(env *sim.Env, st *Stream, delta int64) (int64, int, error) {
	if !st.shared {
		old := st.offset
		st.offset += delta
		return old, c.knownSize(st), nil
	}
	r, err := fsOffset.Call(c.ep, env, st.FID.Server, offsetArgs{
		Stream: st.ID, FID: st.FID, Delta: delta, Set: -1,
	}, 40)
	if err != nil {
		return 0, 0, err
	}
	st.offset = r.Old + delta
	// The server's size is authoritative for shared streams, but local
	// dirty writes may have extended the file beyond it.
	size := r.Size
	if local := c.knownSize(st); local > size {
		size = local
	}
	return r.Old, size, nil
}

func (c *Client) knownSize(st *Stream) int {
	return max(c.files[st.FID].size, st.size)
}

func (c *Client) bumpSize(st *Stream, size int) {
	if size > st.size {
		st.size = size
	}
	c.note(st, func(m *fileMeta) { m.size = max(m.size, size) })
}

// readRange reads file bytes [off, off+n) via the cache when permitted and
// counts them. The bytes come back, in a fresh buffer (zeros need no copy),
// only when keep is set; either way the count comes back.
func (c *Client) readRange(env *sim.Env, st *Stream, off int64, n int, keep bool) ([]byte, int, error) {
	var out []byte
	if keep {
		out = make([]byte, n)
	}
	bs := c.fs.params.BlockSize
	for pos := 0; pos < n; {
		block := (int(off) + pos) / bs
		inOff := (int(off) + pos) % bs
		want := min(bs-inOff, n-pos)
		data, err := c.readBlock(env, st, block)
		if err != nil {
			return nil, 0, err
		}
		if out != nil && inOff < len(data) {
			copy(out[pos:pos+want], data[inOff:])
		}
		pos += want
	}
	c.countRead(env, n)
	return out, n, nil
}

// readBlock returns one block's stored bytes: at most BlockSize of them,
// the rest of the block being zeros (nil for a block of zeros).
func (c *Client) readBlock(env *sim.Env, st *Stream, block int) ([]byte, error) {
	key := cacheKey{fid: st.FID, block: block}
	if c.cacheEnabled(st) {
		if b, ok := c.blocks[key]; ok {
			c.fs.m.hits.IncSlot(sim.WorkerSlot(env))
			c.toFront(b)
			return b.data, nil
		}
		c.fs.m.misses.IncSlot(sim.WorkerSlot(env))
	}
	r, err := fsRead.Call(c.ep, env, st.FID.Server, readArgs{FID: st.FID, Block: block}, 32)
	if err != nil {
		return nil, fmt.Errorf("read %s block %d: %w", st.Path, block, err)
	}
	data := r.Data
	if c.cacheEnabled(st) {
		// A block cached while the fetch blocked (another activity's miss or
		// write on this host) is at least as new as the reply.
		if b, ok := c.blocks[key]; ok {
			c.toFront(b)
			return b.data, nil
		}
		data = c.blockData(data)
		c.insertBlock(key, data)
		c.evict(env)
	}
	return data, nil
}

// blockData returns stored bytes as a cache block's data: BlockSize bytes,
// or nil when nothing is stored.
func (c *Client) blockData(stored []byte) []byte {
	if len(stored) == 0 {
		return nil
	}
	data := make([]byte, c.fs.params.BlockSize)
	copy(data, stored)
	return data
}

// writeRun writes run at run.Off, block by block — through the cache when
// permitted, otherwise as one fs.write per block — and counts the bytes
// written.
func (c *Client) writeRun(env *sim.Env, st *Stream, run PageRun) error {
	bs := c.fs.params.BlockSize
	n := run.size()
	newSize := int(run.Off) + n
	// Record the new size first so that any eviction write-back triggered
	// mid-loop flushes with the correct size.
	defer c.bumpSize(st, newSize)
	c.edit(st.FID, func(m *fileMeta) { m.size = max(m.size, newSize) })
	anyCached := false
	for pos := 0; pos < n; {
		block := (int(run.Off) + pos) / bs
		inOff := (int(run.Off) + pos) % bs
		want := min(bs-inOff, n-pos)
		var chunk []byte // nil: want zeros
		if run.Data != nil {
			chunk = run.Data[pos : pos+want]
		}
		// Re-decide per block: a consistency callback can disable caching
		// for this file while an earlier iteration blocked on the network.
		cached := false
		if c.cacheEnabled(st) {
			ok, err := c.writeBlockCached(env, st, block, inOff, chunk, want)
			if err != nil {
				return err
			}
			cached = ok
			if cached && c.fs.params.WriteThrough {
				if b, ok := c.blocks[cacheKey{fid: st.FID, block: block}]; ok && b.dirty {
					if err := c.flushBlock(env, b); err != nil {
						return err
					}
				}
			}
		}
		if !cached {
			r, err := fsWrite.Call(c.ep, env, st.FID.Server, writeArgs{
				FID: st.FID, Block: block, Data: chunk, N: want, Offset: inOff, NewSize: -1,
			}, 48+want)
			if err != nil {
				return fmt.Errorf("write %s block %d: %w", st.Path, block, err)
			}
			c.edit(st.FID, func(m *fileMeta) { m.ver = r.Version })
			c.bumpSize(st, r.Size)
		} else {
			anyCached = true
		}
		pos += want
	}
	if anyCached {
		c.edit(st.FID, func(m *fileMeta) { m.mtime = env.Now() })
	}
	c.countWritten(env, n)
	return nil
}

// hasDirty reports whether the cache holds dirty blocks for fid.
func (c *Client) hasDirty(fid FileID) bool { return c.dirty[fid] > 0 }

// setDirty flips b's dirty bit, keeping the per-file dirty count in step.
func (c *Client) setDirty(b *cacheBlock, dirty bool) {
	if b.dirty == dirty {
		return
	}
	if b.dirty = dirty; dirty {
		c.dirty[b.key.fid]++
	} else if c.dirty[b.key.fid]--; c.dirty[b.key.fid] == 0 {
		delete(c.dirty, b.key.fid)
	}
}

// removeBlock drops b from the cache if it is still resident. A dropped
// block is clean, so only resident blocks are ever dirty.
func (c *Client) removeBlock(b *cacheBlock) {
	if c.blocks[b.key] != b {
		return
	}
	c.setDirty(b, false)
	b.unlink()
	delete(c.blocks, b.key)
}

// toFront makes b the most recently used block, linking it in if need be.
func (c *Client) toFront(b *cacheBlock) {
	if b.next != nil {
		b.unlink()
	}
	b.prev, b.next = &c.lru, c.lru.next
	b.prev.next, b.next.prev = b, b
}

// unlink takes b out of the LRU ring.
func (b *cacheBlock) unlink() {
	b.prev.next, b.next.prev = b.next, b.prev
	b.prev, b.next = nil, nil
}

// writeBlockCached applies a write of n bytes — chunk, or zeros when chunk
// is nil — to the cache (delayed write-back), fetching the block first for
// a partial overwrite of existing data. A block of zeros stays nil until
// bytes are written into it. It reports false, leaving the cache untouched,
// if caching was disabled while the fetch blocked — the caller must then
// write through to the server; dirtying the cache after the disable
// callback would strand blocks that no flush recall knows about.
func (c *Client) writeBlockCached(env *sim.Env, st *Stream, block, inOff int, chunk []byte, n int) (bool, error) {
	bs := c.fs.params.BlockSize
	key := cacheKey{fid: st.FID, block: block}
	b, ok := c.blocks[key]
	if !ok {
		var fetched []byte
		partial := inOff > 0 || n < bs
		existsOnServer := block*bs < c.knownSize(st)
		if partial && existsOnServer {
			var err error
			if fetched, err = c.readBlock(env, st, block); err != nil {
				return false, err
			}
			if !c.cacheEnabled(st) {
				return false, nil
			}
		}
		if b, ok = c.blocks[key]; !ok {
			b = c.insertBlock(key, c.blockData(fetched))
		}
	}
	switch {
	case chunk != nil:
		if b.data == nil {
			b.data = make([]byte, bs)
		}
		copy(b.data[inOff:], chunk)
	case b.data != nil:
		clear(b.data[inOff : inOff+n])
	}
	b.gen++
	c.setDirty(b, true)
	c.toFront(b)
	c.evict(env)
	return true, nil
}

// insertBlock caches a clean block for key, which must not be resident.
func (c *Client) insertBlock(key cacheKey, data []byte) *cacheBlock {
	b := &cacheBlock{key: key, data: data}
	c.toFront(b)
	c.blocks[key] = b
	return b
}

// evict drops least recently used blocks until the cache is within
// capacity, writing dirty ones back first. A write-back blocks, so after
// each one the tail is read again.
func (c *Client) evict(env *sim.Env) {
	for len(c.blocks) > c.fs.params.ClientCacheBlocks {
		victim := c.lru.prev
		// A failed write-back still drops the block, matching a
		// best-effort cache.
		if victim.dirty && c.flushBlock(env, victim) == nil {
			continue
		}
		c.removeBlock(victim)
	}
}

// flushBlock writes one dirty block through to the server; a block of
// zeros travels as a length. The block stays dirty if a write landed while
// the call was in flight.
func (c *Client) flushBlock(env *sim.Env, b *cacheBlock) error {
	size := c.files[b.key.fid].size
	bs := c.fs.params.BlockSize
	lo := b.key.block * bs
	hi := min(lo+bs, size)
	if hi <= lo {
		c.setDirty(b, false)
		return nil
	}
	var data []byte
	if b.data != nil {
		data = b.data[:hi-lo]
	}
	gen := b.gen
	r, err := fsWrite.Call(c.ep, env, b.key.fid.Server, writeArgs{
		FID: b.key.fid, Block: b.key.block, Data: data, N: hi - lo, Offset: 0, NewSize: size,
	}, 48+(hi-lo))
	if err != nil {
		return fmt.Errorf("flush block: %w", err)
	}
	if b.gen == gen {
		c.setDirty(b, false)
	}
	c.fs.m.flushes.IncSlot(sim.WorkerSlot(env))
	c.edit(b.key.fid, func(m *fileMeta) { m.ver = r.Version })
	return nil
}

// FlushFile writes back all dirty blocks of one file.
func (c *Client) FlushFile(env *sim.Env, fid FileID) error {
	if !c.hasDirty(fid) {
		return nil
	}
	// A buffer per call: a recall and an fsync can flush one client at once.
	dirty := make([]*cacheBlock, 0, 16)
	for _, b := range c.blocks {
		if b.key.fid == fid && b.dirty {
			dirty = append(dirty, b)
		}
	}
	slices.SortFunc(dirty, func(a, b *cacheBlock) int { return cmp.Compare(a.key.block, b.key.block) })
	for _, b := range dirty {
		if err := c.flushBlock(env, b); err != nil {
			return err
		}
	}
	return nil
}

// DropCaches discards every clean cached block (dirty blocks are kept so
// no data is lost). Useful for tests and benchmarks that want cold-cache
// behaviour.
func (c *Client) DropCaches() {
	for _, b := range c.blocks {
		if !b.dirty {
			c.removeBlock(b)
		}
	}
}

// dropFile discards cached blocks of fid, dirty ones included — callers
// flush first when the dirty data matters.
func (c *Client) dropFile(fid FileID) {
	for key, b := range c.blocks {
		if key.fid == fid {
			c.removeBlock(b)
		}
	}
}

// handleFlushCallback serves the server's "write back your dirty blocks"
// consistency recall.
func (c *Client) handleFlushCallback(env *sim.Env, from rpc.HostID, a cacheCallbackArgs) (struct{}, int, error) {
	c.fs.m.recalls.IncSlot(sim.WorkerSlot(env))
	if err := c.FlushFile(env, a.FID); err != nil {
		return struct{}{}, 0, err
	}
	return struct{}{}, 8, nil
}

// handleDisableCallback serves the server's "stop caching this file"
// consistency action: flush dirty blocks, then drop the file from the cache.
func (c *Client) handleDisableCallback(env *sim.Env, from rpc.HostID, a cacheCallbackArgs) (struct{}, int, error) {
	c.fs.m.recalls.IncSlot(sim.WorkerSlot(env))
	if err := c.FlushFile(env, a.FID); err != nil {
		return struct{}{}, 0, err
	}
	c.dropFile(a.FID)
	c.edit(a.FID, func(m *fileMeta) { m.noCache = true })
	return struct{}{}, 8, nil
}

// handleAttrCallback serves the server's cached-attribute fetch: the size
// and modification time this client's cache implies for the file.
func (c *Client) handleAttrCallback(env *sim.Env, from rpc.HostID, a cacheCallbackArgs) (attrReply, int, error) {
	m := c.files[a.FID]
	return attrReply{Size: m.size, MTime: m.mtime}, 24, nil
}

// StatInfo is the attribute record returned by StatFull.
type StatInfo struct {
	FID   FileID
	Size  int
	MTime time.Duration
}

// StatFull returns a file's id, size and modification time.
func (c *Client) StatFull(env *sim.Env, path string) (StatInfo, error) {
	srvHost, err := c.server(path)
	if err != nil {
		return StatInfo{}, err
	}
	r, err := fsStat.Call(c.ep, env, srvHost, statArgs{Path: path}, 16+len(path))
	if err != nil {
		return StatInfo{}, err
	}
	size := r.Size
	mtime := r.MTime
	// This host's dirty blocks may extend the file, and date it, beyond
	// what the server has seen.
	if c.hasDirty(r.FID) {
		m := c.files[r.FID]
		size, mtime = max(size, m.size), max(mtime, m.mtime)
	}
	return StatInfo{FID: r.FID, Size: size, MTime: mtime}, nil
}

// Stat returns a file's id and size: StatFull without the time.
func (c *Client) Stat(env *sim.Env, path string) (FileID, int, error) {
	info, err := c.StatFull(env, path)
	return info.FID, info.Size, err
}

// Remove deletes a file.
func (c *Client) Remove(env *sim.Env, path string) error {
	srvHost, err := c.server(path)
	if err != nil {
		return err
	}
	_, err = fsRemove.Call(c.ep, env, srvHost, removeArgs{Path: path}, 16+len(path))
	return err
}

// Lock acquires the advisory cluster-wide lock named by path, blocking until
// it is free.
func (c *Client) Lock(env *sim.Env, path string) error {
	srvHost, err := c.server(path)
	if err != nil {
		return err
	}
	_, err = fsLock.Call(c.ep, env, srvHost, lockArgs{Path: path}, 16+len(path))
	return err
}

// Unlock releases the advisory lock named by path.
func (c *Client) Unlock(env *sim.Env, path string) error {
	srvHost, err := c.server(path)
	if err != nil {
		return err
	}
	_, err = fsUnlock.Call(c.ep, env, srvHost, lockArgs{Path: path}, 16+len(path))
	return err
}

// WriteFile creates (or truncates) path and writes data through a temporary
// stream.
func (c *Client) WriteFile(env *sim.Env, path string, data []byte) error {
	st, err := c.Open(env, path, WriteMode, OpenOptions{Create: true, Truncate: true})
	if err != nil {
		return err
	}
	if _, err := c.Write(env, st, data); err != nil {
		return err
	}
	return c.Close(env, st)
}

// ReadFile reads the whole of path.
func (c *Client) ReadFile(env *sim.Env, path string) ([]byte, error) {
	st, err := c.Open(env, path, ReadMode, OpenOptions{})
	if err != nil {
		return nil, err
	}
	data, err := c.Read(env, st, c.knownSize(st))
	if err != nil {
		return nil, err
	}
	if cerr := c.Close(env, st); cerr != nil {
		return nil, cerr
	}
	return data, nil
}

// MoveStream transfers one of this host's references on st to host `to`,
// performing the I/O-server coordination Sprite does during migration:
// dirty blocks for the file are flushed from the source cache, the server
// moves the stream's open entry, and if the stream now spans hosts its
// access position is shadowed at the server. A pipe end's buffer stays at
// its I/O server, so moving one is bookkeeping there alone.
//
// The reference moves before anything can block, so ErrBadStream (this
// host holds no reference) is the one failure that moved nothing. Any other
// failure moves the reference back to this host, and the server's entries
// with it, unless this host died (or rebooted) meanwhile: a reference is
// never put back onto a dead incarnation, so it stays at `to` for the crash
// release of the process that owned it.
func (c *Client) MoveStream(env *sim.Env, st *Stream, to rpc.HostID) error {
	if st.closed || st.RefsOn(c.host) <= 0 {
		return ErrBadStream
	}
	if to == c.host {
		return nil
	}
	keepSource := st.RefsOn(c.host) > 1
	addTarget := st.RefsOn(to) == 0
	epoch := c.ep.Epoch()
	st.shift(c.host, to, 1)
	share := st.shared || st.hostsWithRefs() > 1
	var r openReply
	var err error
	if st.pipe {
		_, err = fsPipeMigrate.Call(c.ep, env, st.FID.Server, pipeAdjustArgs{
			Ino: st.FID.Ino, Stream: st.ID, Mode: st.Mode, From: sourceForMove(c.host, keepSource), To: to,
		}, 24)
	} else if err = c.FlushFile(env, st.FID); err == nil && (!keepSource || addTarget) {
		r, err = fsMigrateStream.Call(c.ep, env, st.FID.Server, migrateStreamArgs{
			Stream: st.ID,
			FID:    st.FID,
			Mode:   st.Mode,
			From:   sourceForMove(c.host, keepSource),
			To:     to,
			Offset: st.offset,
			Share:  share,
		}, 72)
	}
	if err != nil {
		if !c.ep.Down() && c.ep.Epoch() == epoch {
			// Undo the move: abort recovery repairs state from the stream's
			// reference counts, so the server's entries for both hosts must
			// agree with them. The request may or may not have run (a lost
			// reply times out a move the server made); the entries are
			// idempotent, so resyncing holds either way. The source is
			// resynced first so a pipe end never looks unreferenced.
			st.shift(to, c.host, 1)
			c.fs.resync(st, c.host)
			c.fs.resync(st, to)
		}
		return fmt.Errorf("migrate stream %s: %w", st.Path, err)
	}
	if st.pipe {
		c.fs.m.pipeMoves.IncSlot(sim.WorkerSlot(env))
		return nil
	}
	if !keepSource || addTarget { // the server moved the entry and replied
		if r.SourceDone {
			c.forget(st.FID)
		}
		st.cacheable = r.Cacheable
		// Let the destination host reconcile its cache. Under host
		// confinement its tables belong to another shard, so the update is
		// deferred and the migrating process carries it (ApplyReconciles).
		if c.fs.transport.Confined() {
			c.pendingRec = append(c.pendingRec, Reconcile{
				FID: st.FID, Version: r.Version, Cacheable: r.Cacheable, Size: r.Size,
			})
		} else if dst := c.fs.Client(to); dst != nil {
			dst.noteVersion(st.FID, r.Version, r.Cacheable)
			dst.edit(st.FID, func(m *fileMeta) { m.size = r.Size })
		}
		st.size = r.Size
	}
	if share {
		st.shared = true
	}
	c.fs.m.streamMoves.IncSlot(sim.WorkerSlot(env))
	return nil
}

// sourceForMove returns the host whose open entry the server should drop,
// or NoHost when the source keeps other references.
func sourceForMove(host rpc.HostID, keepSource bool) rpc.HostID {
	if keepSource {
		return rpc.NoHost
	}
	return host
}
