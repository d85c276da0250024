package fs

import (
	"fmt"

	"sprite/internal/rpc"
)

// Stream is an open file: the Sprite analogue of a file descriptor's
// underlying object. Streams are reference counted per host: fork on one
// host shares the stream (and its access position) in place; migration moves
// references between hosts, and the moment references span more than one
// host the access position becomes a *shadow stream* kept at the I/O server.
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
	owners    map[rpc.HostID]int
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
	for _, c := range st.owners {
		n += c
	}
	return n
}

// RefsOn returns the reference count on one host.
func (st *Stream) RefsOn(host rpc.HostID) int { return st.owners[host] }

// shift moves n of from's references (as many as it has) to host to, or
// drops them when to is NoHost; a stream left with no reference anywhere is
// closed.
func (st *Stream) shift(from, to rpc.HostID, n int) {
	if n = min(n, st.owners[from]); n <= 0 {
		return
	}
	if st.owners[from] -= n; st.owners[from] <= 0 {
		delete(st.owners, from)
	}
	if to != rpc.NoHost {
		st.owners[to] += n
	}
	if st.Refs() == 0 {
		st.closed = true
	}
}

// hostsWithRefs returns how many distinct hosts hold references.
func (st *Stream) hostsWithRefs() int {
	n := 0
	for _, c := range st.owners {
		if c > 0 {
			n++
		}
	}
	return n
}

// String renders the stream for debugging.
func (st *Stream) String() string {
	return fmt.Sprintf("stream %d (%s %s, off=%d, shared=%v)", st.ID, st.Path, st.Mode, st.offset, st.shared)
}
