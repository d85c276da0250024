package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"

	"sprite/internal/fs"
	"sprite/internal/rpc"
)

// CheckInvariants verifies cluster-wide consistency and returns one message
// per violation (empty means clean). It is meant to run at quiesce points —
// when no process is mid-migration and no RPC is in flight — and at the end
// of a run (endOfRun true adds emptiness checks). It assumes every open
// stream is owned by a process; drivers that open files directly should not
// use it mid-run.
//
// Checked invariants:
//
//   - exactly-once accounting: every started pid exits, or is reported
//     crashed, exactly once — never zero times (with endOfRun), never twice;
//   - process-table consistency: a table entry belongs to its kernel (or is
//     a migration skeleton), is not exited, and is ledger-live;
//   - stream/server reference conservation: the servers' open entries —
//     one per (stream, host), files and pipe ends alike — are exactly those
//     surviving processes' streams imply; migration and eviction must
//     neither leak nor lose a reference;
//   - migration-metrics conservation: every migration the metrics plane
//     saw start was retired exactly once (completed or aborted, phase
//     counters included), and at a quiesce point none is still in flight —
//     an abort path that forgot its rollback shows up here as a leak;
//   - with endOfRun: no processes, home records, server opens, or pipes
//     remain, and no dirty cache blocks survive (delegated fs checks);
//   - any subsystem checks registered with AddInvariantCheck (the
//     host-selection claim ledger's no-double-claim/no-leak audit).
func (c *Cluster) CheckInvariants(endOfRun bool) []string {
	var out []string
	out = append(out, c.checkLedger(endOfRun)...)
	out = append(out, c.checkTables(endOfRun)...)
	out = append(out, c.checkStreamRefs()...)
	out = append(out, c.checkMigrationMetrics()...)
	out = append(out, c.checkRecovery()...)
	out = append(out, c.fs.CheckInvariants(endOfRun)...)
	for _, fn := range c.extraChecks {
		out = append(out, fn(endOfRun)...)
	}
	return out
}

// checkRecovery verifies the crash-recovery matrix was applied completely
// for every reaped boot epoch: no process of a reaped home incarnation may
// still be running un-killed anywhere, and no surviving home may still hold
// an unsettled record for a child that died on a reaped incarnation. (Both
// conditions are epoch-guarded, so post-reboot processes are exempt.)
func (c *Cluster) checkRecovery() []string {
	var out []string
	for _, host := range slices.Sorted(maps.Keys(c.reapedEpochs)) {
		reaped := c.reapedEpochs[host]
		for _, k := range c.workstations {
			for _, p := range k.Processes() {
				if p.cur != k || p.state == StateExited || p.killed || p.crashed {
					continue
				}
				if p.home.host == host && p.homeEpoch <= reaped {
					out = append(out, fmt.Sprintf("recovery: %v on %v survives reap of its home %v epoch %d",
						p.pid, k.host, host, reaped))
				}
			}
			if k.host == host {
				continue
			}
			for _, rec := range k.homeRecords() {
				p := rec.proc
				if p.crashed && p.state == StateExited && p.cur != nil && p.cur.host == host && p.crashEpoch <= reaped {
					out = append(out, fmt.Sprintf("recovery: home %v still holds unsettled record for %v, which died on reaped %v epoch %d",
						k.host, p.pid, host, reaped))
				}
			}
		}
	}
	return out
}

// checkMigrationMetrics cross-checks the metrics plane against itself: at
// a quiesce point (where this checker is defined to run) no migration is
// in flight, so the started counter must equal completed + aborted — the
// derived mig.inflight level (see migmeter.go) must be zero — and the
// per-phase abort counters must sum to the total abort counter.
func (c *Cluster) checkMigrationMetrics() []string {
	var out []string
	snap := c.metrics.Snapshot()
	started := snap.Counters["mig.started"]
	completed := snap.Counters["mig.completed"]
	aborted := snap.Counters["mig.aborted"]
	if inflight := started - completed - aborted; inflight != 0 {
		out = append(out, fmt.Sprintf("metrics: mig.inflight = %d at a quiesce point (started %d, completed %d, aborted %d)",
			inflight, started, completed, aborted))
	}
	var byPhase int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "mig.aborted.") {
			byPhase += v
		}
	}
	if byPhase != aborted {
		out = append(out, fmt.Sprintf("metrics: per-phase abort counters sum to %d, mig.aborted = %d",
			byPhase, aborted))
	}
	return out
}

func (c *Cluster) checkLedger(endOfRun bool) []string {
	var out []string
	for _, pid := range slices.SortedFunc(maps.Keys(c.ledgerStarted), PID.Compare) {
		started := c.ledgerStarted[pid]
		ended := c.ledgerEnded[pid]
		if started != 1 {
			out = append(out, fmt.Sprintf("ledger: %v started %d times", pid, started))
		}
		if ended > 1 {
			out = append(out, fmt.Sprintf("ledger: %v ended %d times (exit/crash reported more than once)", pid, ended))
		}
		if endOfRun && ended == 0 {
			out = append(out, fmt.Sprintf("ledger: %v started but never exited or crashed", pid))
		}
	}
	for _, pid := range slices.SortedFunc(maps.Keys(c.ledgerEnded), PID.Compare) {
		if c.ledgerStarted[pid] == 0 {
			out = append(out, fmt.Sprintf("ledger: %v ended without ever starting", pid))
		}
	}
	return out
}

func (c *Cluster) checkTables(endOfRun bool) []string {
	var out []string
	for _, k := range c.workstations {
		for _, p := range k.Processes() {
			switch {
			case p.state == StateExited:
				out = append(out, fmt.Sprintf("table: host %v still holds exited %v", k.host, p.pid))
			case p.cur != k && p.state != StateMigrating:
				out = append(out, fmt.Sprintf("table: host %v holds %v which runs on %v", k.host, p.pid, p.cur.host))
			case p.cur == k && c.ledgerEnded[p.pid] > 0:
				out = append(out, fmt.Sprintf("table: %v is live on %v but the ledger says it ended", p.pid, k.host))
			}
		}
		if endOfRun {
			if n := len(k.procs); n > 0 {
				out = append(out, fmt.Sprintf("table: host %v has %d processes at end of run", k.host, n))
			}
			if n := len(k.homeRecs); n > 0 {
				out = append(out, fmt.Sprintf("table: host %v has %d home records at end of run", k.host, n))
			}
		}
	}
	return out
}

// checkStreamRefs rebuilds, from surviving processes, the open entries the
// file servers should hold — one per (stream, host) pair with a positive
// client refcount — and diffs them against the servers' tables.
func (c *Cluster) checkStreamRefs() []string {
	// Each entry gets bit 1 when a live stream implies it and bit 2 when a
	// server holds it; anything but both is a violation.
	where := make(map[refKey]int)
	seen := make(map[fs.StreamID]bool)
	for _, k := range c.workstations {
		for _, p := range k.Processes() {
			if p.cur != k || p.state == StateExited {
				continue
			}
			for _, st := range p.allStreams(nil) {
				if seen[st.ID] {
					continue
				}
				seen[st.ID] = true
				for h, n := range st.Owners() {
					if n > 0 {
						where[refKey{fid: st.FID, stream: st.ID, host: h}] |= 1
					}
				}
			}
		}
	}
	for id, hosts := range c.fs.OpenRefs() {
		for h, fid := range hosts {
			where[refKey{fid: fid, stream: id, host: h}] |= 2
		}
	}
	var bad []refKey
	for k, w := range where {
		if w != 3 {
			bad = append(bad, k)
		}
	}
	// Report in (server, inode, stream, host) order, so runs replay.
	slices.SortFunc(bad, func(a, b refKey) int {
		return cmp.Or(cmp.Compare(a.fid.Server, b.fid.Server), cmp.Compare(a.fid.Ino, b.fid.Ino),
			cmp.Compare(a.stream, b.stream), cmp.Compare(a.host, b.host))
	})
	var out []string
	for _, k := range bad {
		what := "live stream but the server holds no entry"
		if where[k] == 2 {
			what = "server holds an entry no live stream implies"
		}
		out = append(out, fmt.Sprintf("refs: file %v stream %#x host %v: %s", k.fid, k.stream, k.host, what))
	}
	return out
}

// refKey names one server-side open entry: stream open on host.
type refKey struct {
	fid    fs.FileID
	stream fs.StreamID
	host   rpc.HostID
}
