package core

import (
	"fmt"
	"time"

	"sprite/internal/rpc"
	"sprite/internal/sim"
	"sprite/internal/trace"
)

// This file is the kernel half of the fault plane: named mid-migration
// failure points, fail-stop host crash and restart, and the process ledger
// behind the exactly-once exit invariant. With no failpoint installed and no
// crash injected, nothing here perturbs a run — golden outputs stay
// bit-identical.

// Failpoint names one place where the kernel, the recovery plane or the
// fleet controller consults the installed FailpointFunc, so that a
// triggered fault drives the real abort or recovery path there. The
// constants below are the registry: a misspelt point does not compile.
// The zero value names no point.
type Failpoint uint8

// The failpoints, area-grouped and in pipeline order.
const (
	_ Failpoint = iota
	// FailMigInit: after migration negotiation, before any state moves;
	// failing here aborts with nothing to undo.
	FailMigInit
	// FailMigVM: after the address-space transfer (skipped by exec-time
	// migration); failing here exercises VM rollback.
	FailMigVM
	// FailMigStreams: during per-stream I/O handoff; failing here exercises
	// move-back of partially transferred streams.
	FailMigStreams
	// FailMigPCB: at the process-control-block switch-over, the migration's
	// commit point.
	FailMigPCB
	// FailRecoveryPing: the failure detector's liveness probe; failing here
	// fakes a missed ping and perturbs detection latency.
	FailRecoveryPing
	// FailRecoveryRestart: the supervisor's checkpointed job restart;
	// failing here exercises restart retry and job-loss accounting.
	FailRecoveryRestart
	// FailFleetDrain: the fleet controller's per-tick drain pass; failing
	// here stalls a drain without losing residents.
	FailFleetDrain
	// FailFleetRemediate: the post-drain reboot of a sick host; failing here
	// retries remediation on later ticks.
	FailFleetRemediate
	// FailFleetReadmit: the readmission probation gate; failing here resets
	// the clean-probe count and keeps the host quarantined.
	FailFleetReadmit
	numFailpoints
)

var failpointNames = [numFailpoints]string{
	FailMigInit:         "mig.init",
	FailMigVM:           "mig.vm",
	FailMigStreams:      "mig.streams",
	FailMigPCB:          "mig.pcb",
	FailRecoveryPing:    "recovery.ping",
	FailRecoveryRestart: "recovery.restart",
	FailFleetDrain:      "fleet.drain",
	FailFleetRemediate:  "fleet.remediate",
	FailFleetReadmit:    "fleet.readmit",
}

// String returns the point's name, area-first ("mig.vm"). The zero value,
// and any value past the last point, renders as "".
func (fp Failpoint) String() string {
	if fp >= numFailpoints {
		return ""
	}
	return failpointNames[fp]
}

// FailpointFunc decides whether the step at a failpoint fails. On the
// migration path it runs in the migrating process's activity at the end of
// the step; a non-nil error aborts the migration there and drives the real
// abort-recovery path.
type FailpointFunc func(env *sim.Env, fp Failpoint, pid PID) error

// SetFailpoint installs (or with nil removes) the failpoint hook.
func (c *Cluster) SetFailpoint(fn FailpointFunc) { c.failpoint = fn }

// FailAt consults the installed failpoint hook at fp. The migration path
// consults it at its steps; the recovery and fleet planes at their own
// points, so the fault plane can perturb detection and failover with the
// same machinery that aborts migrations.
func (c *Cluster) FailAt(env *sim.Env, fp Failpoint, pid PID) error {
	if c.failpoint == nil {
		return nil
	}
	return c.failpoint(env, fp, pid)
}

// --- process ledger ---

func (c *Cluster) noteStart(pid PID) {
	c.ledgerMu.Lock()
	c.ledgerStarted[pid]++
	c.ledgerMu.Unlock()
}

func (c *Cluster) noteEnd(pid PID) {
	c.ledgerMu.Lock()
	c.ledgerEnded[pid]++
	c.ledgerMu.Unlock()
}

// confinedNoCrash guards the crash/restart plane on confined clusters: a
// crash must destroy processes, wake waiters, and scrub file state across
// every host at a single instant — inherently cross-shard work that the
// confined contract excludes (DESIGN.md §14). Suites that inject crashes run
// on ordinary clusters, where every host shares the exclusive shard. The
// panic carries a typed *sim.ConfinedContractError so chaos suites that hit
// the contract by mistake can match errors.Is(err, sim.ErrConfinedContract)
// on the surfaced activity error instead of grepping a bare string.
func (c *Cluster) confinedNoCrash(what string, host rpc.HostID) {
	if c.transport.Confined() {
		panic(&sim.ConfinedContractError{
			Op:     what,
			Host:   fmt.Sprintf("host %v", host),
			Reason: "crash recovery is cross-shard work",
		})
	}
}

// --- host crash, restart, reboot, and reaping ---

// HostEpoch returns the host's current boot epoch (1 until its first
// restart).
func (c *Cluster) HostEpoch(host rpc.HostID) rpc.Epoch {
	if ep := c.transport.Endpoint(host); ep != nil {
		return ep.Epoch()
	}
	return 0
}

// DownSince returns when the host last crashed. ok is false if it never
// has. The recovery plane subtracts this from detection time to report
// detect/restart latency.
func (c *Cluster) DownSince(host rpc.HostID) (time.Duration, bool) {
	at, ok := c.downAt[host]
	return at, ok
}

// ReapedEpoch returns the highest boot epoch of host whose death has been
// reaped cluster-wide (0 if none).
func (c *Cluster) ReapedEpoch(host rpc.HostID) rpc.Epoch { return c.reapedEpochs[host] }

// CrashHost fail-stops a host: its endpoint goes down, every process
// executing on it is destroyed, and the file system runs its recovery
// protocol, scrubbing the host's open state from every server (servers
// detect a dead client as soon as the RPC channel breaks, so their half of
// recovery is never deferred).
//
// Only what lived on the dead host is destroyed. Every surviving kernel
// keeps its stale view — orphans homed on the dead host keep running,
// parents stay blocked in Wait on its home records, homes still hold their
// crashed remote children — until a failure detector (internal/recovery's
// monitor, or a test directly) calls ReapDeadHost: crash knowledge spreads
// by detection, as in Sprite. Processes executing on the crashed host
// unwind immediately without running any more simulated work.
func (c *Cluster) CrashHost(env *sim.Env, host rpc.HostID) {
	c.confinedNoCrash("CrashHost", host)
	epoch := rpc.Epoch(0)
	if ep := c.transport.Endpoint(host); ep != nil {
		epoch = ep.Epoch()
		ep.SetDown(true)
	}
	c.downAt[host] = env.Now()
	if k := c.kernels[host]; k != nil {
		for _, p := range k.Processes() {
			if p.cur != k {
				// A skeleton installed by an in-flight migration whose
				// switch-over has not happened: it dies with the host; the
				// migrating process aborts back to its source.
				delete(k.procs, p.pid)
				continue
			}
			c.destroyProcess(env, p, host, epoch)
		}
	}
	c.fs.ScrubHostEpoch(host, epoch)
	env.Emit(trace.Event{Kind: trace.HostCrash, Host: int(host), Epoch: uint64(epoch)})
}

// RestartHost brings a crashed host back with empty tables under a new boot
// epoch. Its pid sequence keeps counting (Sprite pids encode an
// incarnation-safe sequence), so pids from before the crash are never
// reused.
func (c *Cluster) RestartHost(env *sim.Env, host rpc.HostID) {
	c.confinedNoCrash("RestartHost", host)
	if ep := c.transport.Endpoint(host); ep != nil {
		ep.Restart()
	}
	env.Emit(trace.Event{Kind: trace.HostRestart, Host: int(host), Epoch: uint64(c.HostEpoch(host))})
}

// Reboot power-cycles a host: if it is up it crashes first (CrashHost), its
// own volatile tables are cleared — waking any remote waiter still blocked
// on one of its home records — and it comes back registered under the next
// boot epoch. Detectors tell the reboot from an unbroken run by the epoch
// carried in RPC replies.
func (c *Cluster) Reboot(env *sim.Env, host rpc.HostID) {
	c.confinedNoCrash("Reboot", host)
	ep := c.transport.Endpoint(host)
	if ep == nil {
		return
	}
	if !ep.Down() {
		c.CrashHost(env, host)
	}
	if k := c.kernels[host]; k != nil {
		// The machine's memory is gone: a crash alone keeps these records
		// visible for the detector's sake, but a reboot destroys them before
		// any detector can act.
		for _, rec := range k.homeRecords() {
			if w := rec.waiter; w != nil {
				rec.waiter = nil
				w.Complete(env, nil, ErrHostCrashed)
			}
		}
		k.homeRecs = make(map[PID]*homeRecord)
	}
	c.RestartHost(env, host)
	env.Emit(trace.Event{Kind: trace.HostReboot, Host: int(host), Epoch: uint64(c.HostEpoch(host))})
}

// ReapDeadHost applies Sprite's crash-recovery matrix for one dead boot
// incarnation of host, cluster-wide. It is idempotent per epoch and safe to
// run late: everything it touches is guarded by the boot epoch, so state
// created by a post-reboot incarnation is never harmed.
//
//   - The dead incarnation's own home records are discarded; a remote
//     process still blocked in Wait on one is woken with ErrHostCrashed.
//   - Every surviving kernel kills its foreign processes whose home was the
//     dead incarnation (orphans: without a home machine the process has no
//     identity).
//   - Every surviving home settles the records of its remote children that
//     died on the host: the parent's next (or pending) Wait returns the
//     distinguished CrashStatus.
//   - File servers close streams and refcounts owned by the dead epoch (a
//     no-op when the crash itself already scrubbed them).
func (c *Cluster) ReapDeadHost(env *sim.Env, host rpc.HostID, epoch rpc.Epoch) {
	c.confinedNoCrash("ReapDeadHost", host)
	if epoch == 0 || c.reapedEpochs[host] >= epoch {
		return
	}
	c.reapedEpochs[host] = epoch
	if k := c.kernels[host]; k != nil {
		for _, rec := range k.homeRecords() {
			if rec.proc.homeEpoch > epoch {
				continue
			}
			if w := rec.waiter; w != nil {
				rec.waiter = nil
				w.Complete(env, nil, ErrHostCrashed)
			}
			delete(k.homeRecs, rec.pid)
		}
	}
	for _, k := range c.workstations {
		for _, p := range k.Processes() {
			if p.cur != k || p.state == StateExited || p.killed || p.crashed {
				continue
			}
			if p.home.host == host && p.homeEpoch <= epoch {
				p.post(env, SigKill)
				ev := p.traceEvent(trace.ReapOrphan, k.host)
				ev.Peer = int(host)
				env.Emit(ev)
			}
		}
	}
	for _, k := range c.workstations {
		if k.host == host {
			continue
		}
		for _, rec := range k.homeRecords() {
			p := rec.proc
			if p.crashed && p.state == StateExited && p.cur != nil && p.cur.host == host && p.crashEpoch <= epoch {
				k.recordExit(env, p.pid, CrashStatus)
			}
		}
	}
	c.fs.ScrubHostEpoch(host, epoch)
	for _, hook := range c.reapHooks {
		hook(env, host, epoch)
	}
	env.Emit(trace.Event{Kind: trace.HostReap, Host: int(host), Epoch: uint64(epoch)})
}

// HostDown reports whether the host is currently crashed.
func (c *Cluster) HostDown(host rpc.HostID) bool {
	ep := c.transport.Endpoint(host)
	return ep != nil && ep.Down()
}

// destroyProcess fail-stops one process that was executing on the crashed
// host: tables and the ledger are settled instantly (the state was in the
// crashed host's memory — there is no orderly teardown to run), stream
// references the host held are scrubbed, and the process activity is
// interrupted so it unwinds without simulating any further work.
func (c *Cluster) destroyProcess(env *sim.Env, p *Process, crashedHost rpc.HostID, epoch rpc.Epoch) {
	if p.state == StateExited || p.crashed {
		return
	}
	p.crashed = true
	p.killed = true
	p.crashEpoch = epoch
	cur := p.cur
	for _, kk := range c.kernels {
		delete(kk.procs, p.pid)
	}
	cur.stats.ProcsCrashed++
	// A process dying mid-migration may already have moved stream
	// references to a surviving target host; release those — the crash
	// scrub below only covers the dead host itself. A move still in flight
	// is released by its mover once the call returns (transferStreams).
	if t := p.migTarget; t != nil && t.host != crashedHost {
		c.releaseMoved(p, t)
	}
	p.migTarget = nil
	for _, st := range p.allStreams(nil) {
		st.ScrubHost(crashedHost)
	}
	c.noteEnd(p.pid)
	p.state = StateExited
	p.exitStatus = CrashStatus
	p.failPendingMigration(env, fmt.Sprintf("%v crashed", p.pid))
	if w := p.contWaiter; w != nil {
		p.contWaiter = nil
		w.Complete(env, nil, ErrHostCrashed)
	}
	p.exited.Complete(env, CrashStatus, nil)
	if p.env != nil {
		p.env.Interrupt(ErrHostCrashed)
	}
	env.Emit(p.traceEvent(trace.ProcCrash, crashedHost))
}

// releaseMoved drops the references p's migration has moved to target,
// newest first, and forgets them, so a later release drops only what was
// moved since.
func (c *Cluster) releaseMoved(p *Process, target *Kernel) {
	for i := len(p.migMoved) - 1; i >= 0; i-- {
		c.fs.DropRef(p.migMoved[i], target.host)
	}
	p.migMoved = nil
}

// recoverStreams undoes a partial stream transfer when a migration aborts:
// every stream already moved is moved back, newest first. If the normal RPC
// move-back is impossible (the target host crashed — the usual reason for
// the abort), the source kernel repairs the stream state directly, mirroring
// Sprite's post-crash RPC recovery. A stream leaves p.migMoved as its move
// back starts, so a crash of this host meanwhile releases (destroyProcess)
// only the streams still at the target.
func (k *Kernel) recoverStreams(env *sim.Env, p *Process, target *Kernel) {
	for n := len(p.migMoved); n > 0 && !p.crashed; n = len(p.migMoved) {
		st := p.migMoved[n-1]
		p.migMoved = p.migMoved[:n-1]
		err := target.fsc.MoveStream(env, st, k.host)
		switch {
		case p.crashed:
			// This host died during the move back, scrubbing the reference
			// already shifted here: align both hosts' server entries with
			// what the clients still hold, whether or not the call ran.
			k.cluster.fs.RecoverStream(st, k.host, target.host)
		case err != nil:
			k.cluster.fs.RecoverStream(st, target.host, k.host)
		}
	}
}
