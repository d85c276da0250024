package fs

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"sprite/internal/rpc"
)

// This file is the file system's half of the fault plane: crash scrubbing
// (the simulator analogue of Sprite's server recovery protocol, which
// discards a crashed host's open state), direct-state stream recovery for
// aborted migrations, and the state exports the cluster invariant checker
// cross-checks against.

// ScrubHost discards one end of every piece of per-host state this stream
// holds: the crashed host's references vanish wholesale. Used by crash
// injection; a stream with no remaining references anywhere is closed.
func (st *Stream) ScrubHost(host rpc.HostID) { st.shift(host, rpc.NoHost, st.RefsOn(host)) }

// CrashReset discards all soft state a host's client keeps in memory: the
// block cache (dirty blocks are lost — that is what a crash means), version
// and attribute caches, and the prefix table (repopulated by broadcast after
// restart, as in Sprite).
func (c *Client) CrashReset() {
	for _, b := range c.blocks {
		c.removeBlock(b)
	}
	clear(c.files)
	c.prefixCache = nil
}

// ScrubHost runs this server's recovery for a crashed host: every open
// entry the host held is discarded, dirty-cache bookkeeping naming the host
// is cleared, and the host disappears from every pipe end — delivering EOF
// (no writers left) or EPIPE (no readers left) to blocked survivors.
func (s *Server) ScrubHost(host rpc.HostID) {
	for _, fl := range s.files {
		fl.opens.dropHost(host)
		if fl.lastWriter == host {
			fl.lastWriter = rpc.NoHost
		}
	}
	// Pipes wake blocked waiters, so scrub them in a deterministic order.
	for _, ino := range slices.Sorted(maps.Keys(s.pipes)) {
		p := s.pipes[ino]
		p.opens.dropHost(host)
		s.retireIfClosed(p)
	}
}

// ScrubHost applies crash recovery for host across the whole fabric: every
// server discards the host's open state, and the host's own client forgets
// its caches.
func (f *FS) ScrubHost(host rpc.HostID) {
	for _, h := range slices.Sorted(maps.Keys(f.servers)) {
		f.servers[h].ScrubHost(host)
	}
	if c := f.clients[host]; c != nil {
		c.CrashReset()
	}
}

// ScrubHostEpoch runs ScrubHost for one boot incarnation of host exactly
// once: the crash injector scrubs eagerly when the host dies (servers run
// recovery as soon as the RPC channel breaks, as in Sprite), and the
// recovery plane's reaping pass calls it again on detection — the epoch
// guard makes the second call a no-op instead of a double scrub. A later
// incarnation's crash (higher epoch) scrubs again.
func (f *FS) ScrubHostEpoch(host rpc.HostID, epoch rpc.Epoch) {
	if f.scrubbed == nil {
		f.scrubbed = make(map[rpc.HostID]rpc.Epoch)
	}
	if f.scrubbed[host] >= epoch {
		return
	}
	f.scrubbed[host] = epoch
	f.ScrubHost(host)
}

// RecoverStream repairs a stream an aborted migration could not move back:
// the client-side references left on from move to to, and the owning
// server's entries for both hosts are made to match, directly and without
// charging time (the server may already have scrubbed a crashed host). The
// repair is idempotent, so it holds whether or not the failed move back
// reached the server.
func (f *FS) RecoverStream(st *Stream, from, to rpc.HostID) {
	st.shift(from, to, st.RefsOn(from))
	f.resync(st, to)
	f.resync(st, from)
}

// DropRef releases one of host's references to st directly, without RPC or
// simulated time: the client-side count drops by one, and once host holds
// none the server drops the (stream, host) entry, waking pipe waiters
// exactly as a normal close would. The crash path uses it to release
// references a process that died mid-migration had already moved to a
// surviving target host.
func (f *FS) DropRef(st *Stream, host rpc.HostID) {
	st.shift(host, rpc.NoHost, 1)
	f.resync(st, host)
}

// resync makes the server's (st, host) entry agree with the client: present
// while host holds a reference, absent otherwise. A pipe whose last entry
// goes is retired, as a close would retire it; an object already gone is
// left alone.
func (f *FS) resync(st *Stream, host rpc.HostID) {
	srv := f.servers[st.FID.Server]
	if srv == nil {
		return
	}
	if st.pipe {
		if p, ok := srv.pipes[st.FID.Ino]; ok {
			p.opens.sync(st, host)
			srv.retireIfClosed(p)
		}
	} else if fl, ok := srv.byID[st.FID]; ok {
		fl.opens.sync(st, host)
	}
}

// Owners returns a copy of the stream's per-host reference counts, for
// invariant checking.
func (st *Stream) Owners() map[rpc.HostID]int {
	out := make(map[rpc.HostID]int, len(st.owners))
	for _, o := range st.owners {
		out[o.host] = o.n
	}
	return out
}

// OpenRefs exports every server's open tables for invariant checking: for
// each stream, the hosts holding an entry and the object it is open on.
func (f *FS) OpenRefs() map[StreamID]map[rpc.HostID]FileID {
	out := make(map[StreamID]map[rpc.HostID]FileID)
	note := func(fid FileID, t *openTable) {
		for _, r := range t.refs {
			if out[r.stream] == nil {
				out[r.stream] = make(map[rpc.HostID]FileID)
			}
			out[r.stream][r.host] = fid
		}
	}
	for h, srv := range f.servers {
		for fid, fl := range srv.byID {
			note(fid, &fl.opens)
		}
		for ino, p := range srv.pipes {
			note(FileID{Server: h, Ino: ino}, &p.opens)
		}
	}
	return out
}

// CheckInvariants verifies the file system's own consistency rules and
// returns one message per violation (empty means clean):
//
//   - a host may hold dirty cache blocks for a file only while the server
//     still believes its cache is valid: the file must be cacheable and the
//     host must be its last writer or hold it open for writing (the "no
//     stale dirty blocks after a conflicting remote open" rule);
//   - each client's cache holds at most one block per key: every block on
//     the LRU ring is the block mapped for its key, and the ring is as long
//     as the map;
//   - each client's per-file dirty count must equal the dirty blocks its
//     cache holds;
//   - with endOfRun set, every open table must be empty and no pipe alive.
func (f *FS) CheckInvariants(endOfRun bool) []string {
	var out []string
	for _, sh := range slices.Sorted(maps.Keys(f.servers)) {
		srv := f.servers[sh]
		for _, path := range slices.Sorted(maps.Keys(srv.files)) {
			if n := len(srv.files[path].opens.refs); endOfRun && n > 0 {
				out = append(out, fmt.Sprintf("fs: server %d file %s: %d open entries at end of run", sh, path, n))
			}
		}
		if endOfRun && len(srv.pipes) > 0 {
			out = append(out, fmt.Sprintf("fs: server %d: %d pipes alive at end of run", sh, len(srv.pipes)))
		}
	}
	for _, ch := range slices.Sorted(maps.Keys(f.clients)) {
		c := f.clients[ch]
		lenAt, n := len(out), 0 // n stops one past the map's size on a broken ring
		for b := c.lru.next; b != nil && b != &c.lru && n <= len(c.blocks); b = b.next {
			if n++; c.blocks[b.key] != b {
				out = append(out, fmt.Sprintf("fs: host %d: LRU list holds %v block %d, which is not the block mapped for its key", ch, b.key.fid, b.key.block))
			}
		}
		if n != len(c.blocks) {
			out = slices.Insert(out, lenAt, fmt.Sprintf("fs: host %d: LRU list holds %d blocks, map %d", ch, n, len(c.blocks)))
		}
		dirty := make(map[FileID]int)
		for _, b := range c.blocks {
			if b.dirty {
				dirty[b.key.fid]++
			}
		}
		if !maps.Equal(c.dirty, dirty) {
			out = append(out, fmt.Sprintf("fs: host %d: dirty counts %v, cache holds %v", ch, c.dirty, dirty))
		}
		byFile := func(a, b FileID) int {
			return cmp.Or(cmp.Compare(a.Server, b.Server), cmp.Compare(a.Ino, b.Ino))
		}
		for _, fid := range slices.SortedFunc(maps.Keys(dirty), byFile) {
			srv := f.servers[fid.Server]
			if srv == nil {
				out = append(out, fmt.Sprintf("fs: host %d: dirty blocks for %v with no server", ch, fid))
				continue
			}
			fl, ok := srv.byID[fid]
			if !ok {
				// Removed file: lingering dirty blocks are moot, not stale.
				continue
			}
			if !fl.cacheable {
				out = append(out, fmt.Sprintf("fs: host %d: stale dirty blocks for uncacheable %s", ch, fl.path))
				continue
			}
			if fl.lastWriter != ch && !fl.opens.writing(ch) {
				out = append(out, fmt.Sprintf("fs: host %d: dirty blocks for %s but host is neither last writer nor an open writer", ch, fl.path))
			}
		}
	}
	return out
}
