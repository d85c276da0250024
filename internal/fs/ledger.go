package fs

import (
	"cmp"
	"slices"

	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// openRef is one entry of a server's open table: stream is open on host, in
// mode.
type openRef struct {
	stream StreamID
	host   rpc.HostID
	mode   OpenMode
}

// compareRefs orders entries by host, then stream.
func compareRefs(a, b openRef) int {
	return cmp.Or(cmp.Compare(a.host, b.host), cmp.Compare(a.stream, b.stream))
}

// openTable is the server's ledger for one object — a file or a pipe: one
// entry per (stream, host) pair holding it open. Every change to server
// reference state goes through add, drop and dropHost, and all three are
// idempotent — adding an entry that is there, or dropping one that is not,
// changes nothing — so crash repair can replay a move or a close whether or
// not the in-flight request already ran.
//
// Entries are kept sorted by (host, stream): a lookup is a binary search,
// one host's entries are adjacent, and the hosts come out in host order
// without a sort.
//
// For a pipe the table also holds the activities blocked on it, and the
// EOF/EPIPE rule lives in the drops: the last writer entry going wakes the
// blocked readers (EOF), the last reader entry going wakes the blocked
// writers (EPIPE).
type openTable struct {
	refs         []openRef
	readWaiters  []*sim.Future
	writeWaiters []*sim.Future
}

// search returns where (stream, host)'s entry is, or would go, and whether
// it is there.
func (t *openTable) search(stream StreamID, host rpc.HostID) (int, bool) {
	return slices.BinarySearchFunc(t.refs, openRef{stream: stream, host: host}, compareRefs)
}

// add records that stream is open on host.
func (t *openTable) add(stream StreamID, host rpc.HostID, mode OpenMode) {
	if i, ok := t.search(stream, host); !ok {
		t.refs = slices.Insert(t.refs, i, openRef{stream: stream, host: host, mode: mode})
	}
}

// drop removes stream's entry for host, waking a pipe's other side when the
// entry was the last of its end.
func (t *openTable) drop(stream StreamID, host rpc.HostID) {
	i, ok := t.search(stream, host)
	if !ok {
		return
	}
	write := t.refs[i].mode.canWrite()
	t.refs = slices.Delete(t.refs, i, i+1)
	t.wakeIfEnded(write)
}

// onHost returns host's entries.
func (t *openTable) onHost(host rpc.HostID) []openRef {
	lo, _ := t.search(0, host)
	hi := lo
	for hi < len(t.refs) && t.refs[hi].host == host {
		hi++
	}
	return t.refs[lo:hi]
}

// dropHost removes every entry of host — a crashed client — writers first,
// so blocked readers hear EOF before blocked writers hear EPIPE.
func (t *openTable) dropHost(host rpc.HostID) {
	for _, write := range [2]bool{true, false} {
		for _, r := range slices.Clone(t.onHost(host)) {
			if r.mode.canWrite() == write {
				t.drop(r.stream, host)
			}
		}
	}
}

// sync makes st's entry for host agree with the client: present while host
// holds a reference to st, absent otherwise.
func (t *openTable) sync(st *Stream, host rpc.HostID) {
	if st.RefsOn(host) > 0 {
		t.add(st.ID, host, st.Mode)
	} else {
		t.drop(st.ID, host)
	}
}

// wakeIfEnded wakes the side waiting on the writer (write) or reader end
// when that end has no entries left.
func (t *openTable) wakeIfEnded(write bool) {
	if t.holds(write) {
		return
	}
	if write {
		wakeAll(&t.readWaiters) // EOF
	} else {
		wakeAll(&t.writeWaiters) // EPIPE
	}
}

// holds reports whether any entry is in the writing (write) or reading mode
// class.
func (t *openTable) holds(write bool) bool {
	for _, r := range t.refs {
		if r.mode.canWrite() == write {
			return true
		}
	}
	return false
}

// writing reports whether host holds an entry open for writing.
func (t *openTable) writing(host rpc.HostID) bool {
	for _, r := range t.onHost(host) {
		if r.mode.canWrite() {
			return true
		}
	}
	return false
}

// writersOn counts the write entries on hosts other than except.
func (t *openTable) writersOn(except rpc.HostID) int {
	n := 0
	for _, r := range t.refs {
		if r.host != except && r.mode.canWrite() {
			n++
		}
	}
	return n
}

// heldOther reports whether a host other than except holds an entry.
func (t *openTable) heldOther(except rpc.HostID) bool {
	for _, r := range t.refs {
		if r.host != except {
			return true
		}
	}
	return false
}

// hostsOther returns the hosts (other than except) holding an entry, in
// host order: callers fire consistency RPCs (recalls, shoot-downs) down this
// list, so its order is part of the deterministic event schedule.
func (t *openTable) hostsOther(except rpc.HostID) []rpc.HostID {
	var out []rpc.HostID
	for _, r := range t.refs {
		if r.host != except && (len(out) == 0 || out[len(out)-1] != r.host) {
			out = append(out, r.host)
		}
	}
	return out
}

// wakeAll completes a pipe end's waiters. They are handlers on the pipe's
// server, as is every caller, so the wakes need no completer's Env.
func wakeAll(waiters *[]*sim.Future) {
	for _, w := range *waiters {
		w.Complete(nil, nil, nil)
	}
	*waiters = nil
}
