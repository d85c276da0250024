package fs

import (
	"fmt"
	"slices"

	"sprite/internal/rpc"
)

// Stream is an open file: the Sprite analogue of a file descriptor's
// underlying object. Streams are reference counted per host: fork on one
// host shares the stream (and its access position) in place; migration moves
// references between hosts, and the moment references span more than one
// host the access position becomes a *shadow stream* kept at the I/O server.
//
// A Stream is only ever used by pointer: its first owner entry lives in
// own1, so a value copy would share that entry with the original.
type Stream struct {
	ID   StreamID
	FID  FileID
	Path string
	Mode OpenMode

	offset    int64
	size      int
	cacheable bool
	shared    bool // offset lives at the I/O server
	pipe      bool // stream is one end of a pipe (buffer at the server)
	closed    bool
	owners    []ownerRef // hosts holding references, in first-reference order
	own1      [1]ownerRef
}

// ownerRef is one host's reference count on a stream; only hosts with n > 0
// have an entry.
type ownerRef struct {
	host rpc.HostID
	n    int
}

// Offset returns the stream's local access position. For a shared stream the
// authoritative position is at the server and this value is a snapshot.
func (st *Stream) Offset() int64 { return st.offset }

// Shared reports whether the access position is shadowed at the I/O server.
func (st *Stream) Shared() bool { return st.shared }

// Closed reports whether all references have been closed.
func (st *Stream) Closed() bool { return st.closed }

// Refs returns the total reference count across hosts.
func (st *Stream) Refs() int {
	n := 0
	for _, o := range st.owners {
		n += o.n
	}
	return n
}

// RefsOn returns the reference count on one host.
func (st *Stream) RefsOn(host rpc.HostID) int {
	for _, o := range st.owners {
		if o.host == host {
			return o.n
		}
	}
	return 0
}

// addRefs adds n references (n < 0 removes them) on host, dropping the
// host's entry once it holds none; NoHost holds none. The first entry lives
// in own1, so a stream held on one host needs no storage of its own.
func (st *Stream) addRefs(host rpc.HostID, n int) {
	for i := range st.owners {
		if st.owners[i].host == host {
			if st.owners[i].n += n; st.owners[i].n <= 0 {
				st.owners = slices.Delete(st.owners, i, i+1)
			}
			return
		}
	}
	if n > 0 && host != rpc.NoHost {
		if st.owners == nil {
			st.owners = st.own1[:0]
		}
		st.owners = append(st.owners, ownerRef{host, n})
	}
}

// shift moves n of from's references (as many as it has) to host to, or
// drops them when to is NoHost; a stream left with no reference anywhere is
// closed.
func (st *Stream) shift(from, to rpc.HostID, n int) {
	if n = min(n, st.RefsOn(from)); n <= 0 {
		return
	}
	st.addRefs(from, -n)
	st.addRefs(to, n)
	if st.Refs() == 0 {
		st.closed = true
	}
}

// hostsWithRefs returns how many distinct hosts hold references.
func (st *Stream) hostsWithRefs() int { return len(st.owners) }

// String renders the stream for debugging.
func (st *Stream) String() string {
	return fmt.Sprintf("stream %d (%s %s, off=%d, shared=%v)", st.ID, st.Path, st.Mode, st.offset, st.shared)
}
