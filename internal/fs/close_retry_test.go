package fs

import (
	"testing"

	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// writeEntries counts host's write-mode entries in the open table of path.
func writeEntries(h *harness, path string, host rpc.HostID) int {
	n := 0
	for _, r := range h.srv.files[path].opens.refs {
		if r.host == host && r.mode.canWrite() {
			n++
		}
	}
	return n
}

// TestCloseRetriedAfterTransportFailure: a close whose RPC never reaches
// the server (caller partitioned or mid-crash-window) must not leak the
// server-side open entry forever — the client queues it and retries at its
// next Open. Found by the E16 shoot-out at 10,000 hosts, where partitioned
// announcers left /sprite/hoststate open entries behind and tripped the
// end-of-run refcount invariant.
func TestCloseRetriedAfterTransportFailure(t *testing.T) {
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	h.run(t, func(env *sim.Env) error {
		st, err := c.Open(env, "/x", WriteMode, OpenOptions{Create: true})
		if err != nil {
			return err
		}
		// The caller drops off the network before the close goes out.
		c.ep.SetDown(true)
		if err := c.Close(env, st); err == nil {
			t.Error("close with caller down should fail")
		}
		if got := writeEntries(h, "/x", 2); got != 1 {
			t.Fatalf("write entries after failed close = %d, want 1 (leaked close not yet retried)", got)
		}
		c.ep.SetDown(false)

		// The next Open drains the queue before opening.
		st2, err := c.Open(env, "/x", WriteMode, OpenOptions{})
		if err != nil {
			return err
		}
		if got := writeEntries(h, "/x", 2); got != 1 {
			t.Errorf("write entries after retry+reopen = %d, want 1 (old close applied, new open live)", got)
		}
		if err := c.Close(env, st2); err != nil {
			return err
		}
		if got := writeEntries(h, "/x", 2); got != 0 {
			t.Errorf("write entries after final close = %d, want none", got)
		}
		return nil
	})
}

// TestStaleCloseDroppedAfterRestart: a queued close from a previous boot
// epoch must be discarded, not retried — the server reclaims the dead
// epoch's entries via its own scrub, and a late close would debit a fresh
// post-reboot open session instead.
func TestStaleCloseDroppedAfterRestart(t *testing.T) {
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	h.run(t, func(env *sim.Env) error {
		st, err := c.Open(env, "/x", WriteMode, OpenOptions{Create: true})
		if err != nil {
			return err
		}
		c.ep.SetDown(true)
		if err := c.Close(env, st); err == nil {
			t.Error("close with caller down should fail")
		}
		// The host reboots: new epoch. (In a cluster the server's epoch
		// scrub reclaims the old entry; the harness has no scrubber, so the
		// pre-reboot entry stays — what matters here is that the stale
		// queued close is not re-sent against the new session.)
		c.ep.Restart()
		before := writeEntries(h, "/x", 2)

		st2, err := c.Open(env, "/x", WriteMode, OpenOptions{})
		if err != nil {
			return err
		}
		if got := writeEntries(h, "/x", 2); got != before+1 {
			t.Errorf("writers after post-reboot open = %d, want %d (stale close must not fire)", got, before+1)
		}
		return c.Close(env, st2)
	})
}
