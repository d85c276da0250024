package core

import (
	"errors"
	"fmt"
	"time"

	"sprite/internal/fs"
	"sprite/internal/rpc"
	"sprite/internal/sim"
	"sprite/internal/trace"
	"sprite/internal/vm"
)

// MigrationRecord documents one completed migration, component by
// component — the breakdown the thesis's performance chapter tabulates.
type MigrationRecord struct {
	PID    PID
	From   rpc.HostID
	To     rpc.HostID
	Reason string
	Start  time.Duration

	// Total is wall time of the whole migration; Freeze is the part during
	// which the process could not execute anywhere (for pre-copy they
	// differ).
	Total  time.Duration
	Freeze time.Duration

	// NegotiateTime, VMTime, FileTime, PCBTime, ResumeTime decompose
	// Total: the handshake, the VM strategy's work, the open-stream moves,
	// the PCB shipment, and the tail (home-machine update plus the final
	// switch-over).
	NegotiateTime time.Duration
	VMTime        time.Duration
	FileTime      time.Duration
	PCBTime       time.Duration
	ResumeTime    time.Duration

	// VMBytes counts bytes moved at migration time (flush or direct copy).
	VMBytes int
	// PagesFlushed / PagesCopied detail the VM strategy's work.
	PagesFlushed int
	PagesCopied  int
	// Files is the number of open streams transferred.
	Files int
	// ExecTime marks an exec-time migration (no VM transfer).
	ExecTime bool
	// Residual marks a residual dependency left on the source host.
	Residual bool
	// Strategy names the VM transfer strategy used.
	Strategy string

	// Batched marks a migration whose VM transfer used the bulk data
	// plane (copy-on-reference ships none); BatchRuns / BatchFragments /
	// BatchRetransmits detail it.
	Batched          bool
	BatchRuns        int
	BatchFragments   int
	BatchRetransmits int
}

// RequestMigration asks for p to migrate to target at its next migration
// point. The returned future resolves to the new host id (or an error). A
// process using shared writable memory refuses, as in Sprite.
func (k *Kernel) RequestMigration(p *Process, target *Kernel, reason string) *sim.Future {
	return k.requestMigration(p, target, reason, false)
}

// RequestExecMigration marks p to migrate to target at its next exec — the
// cheap remote-invocation path (no VM transfer).
func (k *Kernel) RequestExecMigration(p *Process, target *Kernel, reason string) *sim.Future {
	return k.requestMigration(p, target, reason, true)
}

func (k *Kernel) requestMigration(p *Process, target *Kernel, reason string, atExec bool) *sim.Future {
	done := sim.NewFuture()
	switch err := p.migratable(atExec); {
	case err != nil:
		done.Complete(nil, nil, err) // no waiter yet
	case !atExec && target == p.cur:
		done.Complete(nil, target.host, nil)
	default:
		p.migrateReq = &migrationRequest{target: target, atExec: atExec, reason: reason, done: done}
	}
	return done
}

// migratable reports why p cannot take a new migration request (nil when
// it can). An exec-time request skips the shared-memory rule: the image is
// discarded at exec, so nothing shared would move.
func (p *Process) migratable(atExec bool) error {
	switch {
	case p.state == StateExited:
		return fmt.Errorf("%w: %v", ErrNoSuchProcess, p.pid)
	case p.sharedMemory && !atExec:
		return fmt.Errorf("%w: %v uses shared writable memory", ErrNotMigratable, p.pid)
	case p.migrateReq != nil:
		return fmt.Errorf("%w: %v migration already pending", ErrNotMigratable, p.pid)
	}
	return nil
}

// failPendingMigration resolves a request p will never reach a migration
// point to serve (it exited, or died with its host) with ErrNoSuchProcess.
func (p *Process) failPendingMigration(env *sim.Env, why string) {
	if req := p.migrateReq; req != nil {
		p.migrateReq = nil
		req.done.Complete(env, nil, fmt.Errorf("%w: %s", ErrNoSuchProcess, why))
	}
}

// migrate moves p from this kernel to req.target, executed in p's own
// activity at a migration point. The order follows the thesis: negotiate,
// transfer the process's state, transfer the PCB, update the home machine,
// resume on the target. Exec-time migration is the same mechanism with the
// virtual-memory transfer left out, so the state-transfer step
// (transferImage / transferForExec) is the one place the two differ; what
// else hangs off req.atExec is the exec arguments riding with the PCB and
// the bookkeeping of which kind completed.
func (k *Kernel) migrate(env *sim.Env, p *Process, req *migrationRequest) error {
	target := req.target
	if target == k {
		return nil
	}
	rec := &p.mig.rec
	*rec = MigrationRecord{
		PID:      p.pid,
		From:     k.host,
		To:       target.host,
		Reason:   req.reason,
		Start:    env.Now(),
		ExecTime: req.atExec,
		Strategy: k.strategy.Name(),
	}
	if req.atExec {
		rec.Strategy = "exec-time"
	}
	p.state = StateMigrating
	// Expose in-flight progress so crash injection can release stream
	// references already moved to the target if this host dies mid-flight.
	p.migTarget = target
	defer func() { // the stream lists keep their arrays, pinning no stream
		clear(p.migMoved[:cap(p.migMoved)])
		clear(p.migStreams)
		p.migTarget, p.migMoved, p.migStreams = nil, p.migMoved[:0], p.migStreams[:0]
	}()
	// The target incarnation this migration negotiates with: a reboot
	// mid-migration lands on a new one whose tables never saw it.
	epoch := k.cluster.HostEpoch(target.host)

	mm := newMigMeter(env, k.cluster.metrics, rec.Strategy)

	// abort undoes a partial migration so the process resumes on the
	// source (where an exec rebuilds the image locally instead), the target
	// repairing its half (rollBack). A process destroyed by a crash of its
	// own host skips that: there is nothing left to resume. The metrics
	// rollback always runs, leaving no phase timing or in-flight count.
	abort := func(err error) error {
		mm.abort(env)
		k.stats.MigrationsAborted++
		if p.crashed {
			return err
		}
		k.rollBack(env, p, target, epoch)
		p.state = StateRunning
		return err
	}

	// 1. Handshake: version check and skeleton allocation at the target.
	mm.next(env, phaseNegotiate)
	if err := k.migInit(env, p, target); err != nil {
		return abort(err)
	}
	if err := k.cluster.FailAt(env, FailMigInit, p.pid); err != nil {
		return abort(err)
	}

	// 2 + 3. Virtual memory (unless this is an exec) and open streams.
	var tStreams time.Duration
	var err error
	if req.atExec {
		tStreams, err = k.transferForExec(env, p, target, rec, &mm)
	} else {
		tStreams, err = k.transferImage(env, p, target, rec, &mm)
	}
	if err != nil {
		return abort(err)
	}
	if err := k.cluster.FailAt(env, FailMigStreams, p.pid); err != nil {
		return abort(err)
	}
	rec.FileTime = env.Now() - tStreams
	mm.next(env, phasePCB)

	// 4. PCB and residual untyped state; exec arguments ride along.
	tP := env.Now()
	if err := k.transferPCB(env, p, target); err != nil {
		return abort(err)
	}
	if err := k.cluster.FailAt(env, FailMigPCB, p.pid); err != nil {
		return abort(err)
	}
	if req.atExec {
		argBytes := 0
		for _, a := range p.args {
			argBytes += len(a)
		}
		if argBytes > 0 {
			if err := k.cluster.net.Send(env, argBytes); err != nil {
				return abort(err)
			}
		}
	}
	rec.PCBTime = env.Now() - tP
	mm.next(env, phaseResume)

	// 5. Tell the home machine where the process now lives. Confined
	// clusters always take the RPC (even migrating home), because the home
	// record lives on the home host's shard and this activity is still on
	// the source shard.
	if p.home != target || k.cluster.transport.Confined() {
		if _, err := kUpdateLoc.Call(k.ep, env, p.home.host, updateLocArgs{
			PID: p.pid, Loc: target.host,
		}, 32); err != nil {
			return abort(fmt.Errorf("update home: %w", err))
		}
	} else if hr := p.home.homeRecs[p.pid]; hr != nil {
		hr.location = target.host
	}

	// The target may have crashed after the PCB landed; resuming there
	// would run the process on a dead host, or on a rebooted incarnation
	// that has already scrubbed the streams moved to it.
	if k.cluster.HostDown(target.host) || k.cluster.HostEpoch(target.host) != epoch {
		if hr := p.home.homeRecs[p.pid]; hr != nil {
			hr.location = k.host
		}
		return abort(fmt.Errorf("%w: target %v crashed mid-migration", rpc.ErrHostDown, target.host))
	}

	// 6. Switch the process over and resume. After an exec-time transfer
	// there is no address space left to re-point.
	delete(k.procs, p.pid)
	k.stats.MigrationsOut++
	p.cur = target
	p.migrations++
	p.state = StateRunning
	if p.space != nil {
		p.space.SetPagerAll(k.strategy.TargetPager(k, target, p))
	}

	rec.ResumeTime = mm.complete(env)
	rec.Total = env.Now() - rec.Start
	if rec.Freeze == 0 {
		rec.Freeze = rec.Total
	} else {
		// A strategy that set its own freeze (pre-copy) froze the process
		// only for its final pass; stream and PCB transfer freeze it too.
		rec.Freeze += rec.FileTime + rec.PCBTime
	}
	mm.observeTotals(env, rec)
	k.records = append(k.records, *rec)
	if req.atExec {
		k.stats.RemoteExecs++
	}
	ev := p.traceEvent(trace.Migration, rec.From)
	ev.Peer, ev.Reason, ev.Total = int(rec.To), rec.Reason, rec.Total
	if req.atExec {
		ev.Kind = trace.ExecMigration
	} else {
		ev.Strategy, ev.VMBytes, ev.Files = rec.Strategy, rec.VMBytes, rec.Files
	}
	env.Emit(ev)
	return nil
}

// migScratch is what a migration hop works in, kept on the process so a
// warm hop allocates only its stream mover's activity (DESIGN.md §17). A
// hop reuses it only once the last hop's mover has completed the join;
// Future.Reset panics otherwise.
type migScratch struct {
	rec       MigrationRecord
	moverName string
	mover     func(*sim.Env) error
	src, dst  *Kernel
	join      sim.Future
	cor       corPager
}

// moveStreams is the body of p's stream mover for the hop in p.mig.
func (p *Process) moveStreams(env *sim.Env) error {
	m := &p.mig
	m.join.Complete(env, nil, m.src.transferStreams(env, p, m.dst, &m.rec))
	return nil
}

// transferImage is a full migration's state transfer: the VM strategy's
// work with the open streams moving in their own activity beside it. Both
// phases still tile Total exactly because the vm phase closes retroactively
// at the instant the VM work finished and the streams phase covers only the
// tail that outlived it (zero when the streams won the race). Like
// transferForExec it returns when the streams phase opened.
func (k *Kernel) transferImage(env *sim.Env, p *Process, target *Kernel, rec *MigrationRecord, mm *migMeter) (time.Duration, error) {
	rec.NegotiateTime = mm.next(env, mm.names.vm)
	m := &p.mig
	if m.mover == nil {
		m.moverName, m.mover = "mig-streams-"+p.pidName, p.moveStreams
	} else {
		m.join.Reset()
	}
	m.src, m.dst = k, target
	env.Spawn(m.moverName, m.mover)
	var vmErr error
	if p.space != nil {
		vmErr = k.strategy.Transfer(env, k, target, p, rec)
	}
	if vmErr != nil {
		vmErr = fmt.Errorf("vm transfer: %w", vmErr)
	} else {
		vmErr = k.cluster.FailAt(env, FailMigVM, p.pid)
	}
	tVMEnd := env.Now()
	// Join the stream mover before acting on any error: abort recovery
	// needs the final moved list, and the mover must not outlive the
	// migration it belongs to. (A crash interrupts this wait; the mover
	// then releases what it moves itself.)
	_, serr := m.join.Wait(env)
	if vmErr != nil {
		return 0, vmErr
	}
	rec.VMTime = mm.nextAt(env, phaseStreams, tVMEnd)
	if serr != nil {
		return 0, fmt.Errorf("stream transfer: %w", serr)
	}
	return tVMEnd, nil
}

// transferForExec is the exec-time state transfer: no VM moves at all — the
// old image is discarded here and the new one is built on the target — so
// only the open streams travel, inline.
func (k *Kernel) transferForExec(env *sim.Env, p *Process, target *Kernel, rec *MigrationRecord, mm *migMeter) (time.Duration, error) {
	if err := p.discardSpace(env); err != nil {
		return 0, err
	}
	rec.NegotiateTime = mm.next(env, phaseStreams)
	tStreams := env.Now()
	if err := k.transferStreams(env, p, target, rec); err != nil {
		return tStreams, fmt.Errorf("stream transfer: %w", err)
	}
	return tStreams, nil
}

func (k *Kernel) migInit(env *sim.Env, p *Process, target *Kernel) error {
	if err := k.cpu.Compute(env, k.params.MigInitCPU); err != nil {
		return err
	}
	if _, err := kMigInit.Call(k.ep, env, target.host, migInitArgs{
		PID: p.pid, Version: k.migrationVersion,
	}, k.params.MigInitBytes); err != nil {
		return fmt.Errorf("migration handshake: %w", err)
	}
	return nil
}

// transferStreams moves every open stream (including VM backing streams) to
// the target host, with per-file kernel bookkeeping cost on top of the I/O
// server coordination performed by the file system. Each stream whose
// reference now sits at the target joins p.migMoved, so an aborting
// migration can move it back — on error the list covers everything
// transferred before the failure.
func (k *Kernel) transferStreams(env *sim.Env, p *Process, target *Kernel, rec *MigrationRecord) error {
	if p.migStreams == nil { // the first hop sizes one array for both lists
		n := len(p.allStreams(make([]*fs.Stream, 0, 8)))
		both := make([]*fs.Stream, 2*n)
		p.migStreams, p.migMoved = both[:0:n], both[n:n]
	}
	p.migStreams = p.allStreams(p.migStreams[:0])
	for _, st := range p.migStreams {
		if err := k.cpu.Compute(env, k.params.MigPerFileCPU); err != nil {
			return err
		}
		err := k.fsc.MoveStream(env, st, target.host)
		if err == nil || p.crashed && !errors.Is(err, fs.ErrBadStream) {
			p.migMoved = append(p.migMoved, st)
		}
		if p.crashed {
			// The source died during the move. MoveStream never puts a
			// reference back on a dead host, and the crash has already
			// released what moved before; release the rest now that the
			// call is over and no server entry can still appear behind us.
			k.cluster.releaseMoved(p, target)
			return ErrHostCrashed
		}
		if err != nil {
			return fmt.Errorf("move %s: %w", st.Path, err)
		}
		// A confined move pends the destination client's updates here; the
		// process carries them to the target's shard. Harvesting per call
		// keeps concurrent migrations from one source untangled: MoveStream
		// cannot yield between pending and returning.
		p.migRecon = k.fsc.AppendReconciles(p.migRecon)
		rec.Files++
	}
	return nil
}

// transferPCB ships the process control block and installs the process in
// the target's tables.
func (k *Kernel) transferPCB(env *sim.Env, p *Process, target *Kernel) error {
	if err := k.cpu.Compute(env, k.params.MigPCBCPU); err != nil {
		return err
	}
	if _, err := kMigPCB.Call(k.ep, env, target.host, p, k.params.MigPCBBytes); err != nil {
		return fmt.Errorf("pcb transfer: %w", err)
	}
	return nil
}

// EvictAll migrates every evictable foreign process off this host and
// waits for the evictions to complete. Sprite triggers this when a
// workstation's owner returns. The destination is the process's home
// machine unless an eviction target policy is installed (the re-select
// ablation).
func (k *Kernel) EvictAll(env *sim.Env) error {
	var waits []*sim.Future
	for _, p := range k.ForeignProcesses() {
		if !p.evictable || p.state == StateExited {
			continue
		}
		target := p.home
		if k.evictTarget != nil {
			if t := k.evictTarget(env, p); t != nil && t != k {
				target = t
			}
		}
		waits = append(waits, k.RequestMigration(p, target, "eviction"))
		k.stats.Evictions++
		ev := p.traceEvent(trace.Eviction, k.host)
		ev.Peer = int(target.host)
		env.Emit(ev)
	}
	for _, w := range waits {
		if _, err := w.Wait(env); err != nil {
			// A process that exits before reaching its migration point
			// has vacated the host on its own; that is a successful
			// eviction, not a failure.
			if errors.Is(err, ErrNoSuchProcess) {
				continue
			}
			return fmt.Errorf("eviction: %w", err)
		}
	}
	return nil
}

// SetEvictionTarget installs a policy choosing where evicted processes go
// (nil, the default, evicts home as Sprite does; returning nil from the
// policy also falls back to home).
func (k *Kernel) SetEvictionTarget(f func(env *sim.Env, p *Process) *Kernel) {
	k.evictTarget = f
}

// --- remote exec convenience (the pmake path) ---

// ForkRemoteExec forks a child that immediately execs `name` on the target
// host: fork locally, migrate at exec time (no VM transfer), then build the
// new image remotely. This is how pmake and other load-sharing applications
// use migration in Sprite.
func (c *Ctx) ForkRemoteExec(name string, prog Program, cfg ProcConfig, target rpc.HostID) (*Process, error) {
	tk := c.proc.cur.cluster.KernelOn(target)
	if tk == nil {
		return nil, fmt.Errorf("%w: %v", rpc.ErrNoHost, target)
	}
	trampoline := func(cc *Ctx) error {
		return cc.Exec(name, prog, cfg)
	}
	child, err := c.Fork(name, trampoline, ProcConfig{})
	if err != nil {
		return nil, err
	}
	// Pend the exec-time migration before the child reaches its exec.
	c.proc.cur.RequestExecMigration(child, tk, "remote-exec")
	return child, nil
}

// corPager satisfies post-migration faults by pulling pages from the source
// host (Accent/Zayas copy-on-reference).
type corPager struct {
	src *Kernel
	dst *Kernel
	pid PID
}

func (p *corPager) PageIn(env *sim.Env, seg *vm.Segment, page int) error {
	_, err := kFetchPage.Call(p.dst.ep, env, p.src.host, fetchPageArgs{PID: p.pid, Page: page}, 32)
	return err
}
