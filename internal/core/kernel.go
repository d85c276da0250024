package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"sprite/internal/fs"
	"sprite/internal/rpc"
	"sprite/internal/sim"
	"sprite/internal/trace"
	"sprite/internal/vm"
)

// KernelStats counts migration-related kernel events. Cluster.MetricsSnapshot
// publishes each tagged field as the gauge kernel.<host>.<tag>.
type KernelStats struct {
	MigrationsOut uint64 `metric:"migrations_out"`
	MigrationsIn  uint64 `metric:"migrations_in"`
	// MigrationsAborted counts outbound migrations from this host that hit
	// the abort-recovery path (target crash, failpoint, version skew). The
	// fleet health plane reads it as a per-host sickness signal.
	MigrationsAborted uint64
	Evictions         uint64 `metric:"evictions"`
	ForwardedCalls    uint64 `metric:"forwarded_calls"`
	RemoteExecs       uint64 `metric:"remote_execs"`
	ProcsStarted      uint64 `metric:"procs_started"`
	ProcsExited       uint64 `metric:"procs_exited"`
	ProcsCrashed      uint64 `metric:"procs_crashed"`
}

// homeRecord is the state a home kernel keeps for every process whose home
// is this host — including processes currently running elsewhere. It is what
// makes migration transparent: signals, waits, and ps-style queries resolve
// here and are routed onward.
type homeRecord struct {
	pid      PID
	proc     *Process
	location rpc.HostID
	parent   PID
	pgrp     PID // process group (its leader's pid), kept only here
	children map[PID]bool
	// exits queues exited-but-unwaited children of THIS process.
	exits []childExit
	// waiter is resolved when a child exit arrives while a Wait of the
	// process is pending here.
	waiter *sim.Future
}

type childExit struct {
	pid    PID
	status int
}

// Kernel is one host's Sprite kernel: the process table, the migration
// mechanism, and the forwarding target for the host's home processes.
type Kernel struct {
	cluster *Cluster
	host    rpc.HostID
	params  Params
	cpu     *sim.CPU
	fsc     *fs.Client
	ep      *rpc.Endpoint

	procs    map[PID]*Process // processes executing here now
	homeRecs map[PID]*homeRecord
	pidSeq   int

	// migrationVersion guards against migrating between incompatible
	// kernels (the thesis's antidote to migration fragility).
	migrationVersion int
	strategy         TransferStrategy
	readahead        vm.ReadaheadPager // installed by SpriteFlushStrategy

	lastInput   time.Duration
	records     []MigrationRecord
	stats       KernelStats
	evictTarget func(env *sim.Env, p *Process) *Kernel

	// forwardAll, when set, forwards *every* kernel call of foreign
	// processes to their home machines — the Remote UNIX design [Lit87]
	// that the thesis argues against in §4.3.1. It exists as a baseline
	// for the forwarding-cost comparison.
	forwardAll bool
}

// SetForwardAll switches this kernel to the forward-everything baseline
// for its foreign processes (Remote UNIX-style; see §4.3.1).
func (k *Kernel) SetForwardAll(v bool) { k.forwardAll = v }

func newKernel(c *Cluster, host rpc.HostID) *Kernel {
	k := &Kernel{
		cluster:          c,
		host:             host,
		params:           c.params,
		cpu:              sim.NewCPU(c.sim, c.params.CPUQuantum),
		fsc:              c.fs.AddClient(host),
		ep:               c.transport.Register(host),
		procs:            make(map[PID]*Process),
		homeRecs:         make(map[PID]*homeRecord),
		migrationVersion: 1,
		strategy:         SpriteFlushStrategy{},
	}
	k.readahead = vm.ReadaheadPager{Client: k.fsc, Window: prefetchPages}
	kForward.Handle(k.ep, k.handleForward)
	kMigInit.Handle(k.ep, k.handleMigInit)
	kMigPCB.Handle(k.ep, k.handleMigPCB)
	kMigAbort.Handle(k.ep, k.handleMigAbort)
	kUpdateLoc.Handle(k.ep, k.handleUpdateLoc)
	kExitNotify.Handle(k.ep, k.handleExitNotify)
	kKill.Handle(k.ep, k.handleKill)
	kKillLocal.Handle(k.ep, k.handleKillLocal)
	kKillpg.Handle(k.ep, k.handleKillpg)
	EvictService.Handle(k.ep, k.handleEvict)
	kFetchPage.Handle(k.ep, k.handleFetchPage)
	kMigPages.Handle(k.ep, k.handleMigPages)
	return k
}

// Host returns the kernel's host id.
func (k *Kernel) Host() rpc.HostID { return k.host }

// CPU returns the host's processor model.
func (k *Kernel) CPU() *sim.CPU { return k.cpu }

// FSClient returns the host's file system client.
func (k *Kernel) FSClient() *fs.Client { return k.fsc }

// Stats returns a copy of the kernel's counters.
func (k *Kernel) Stats() KernelStats { return k.stats }

// MigrationRecords returns the detailed per-migration records collected at
// this kernel (as migration source).
func (k *Kernel) MigrationRecords() []MigrationRecord {
	out := make([]MigrationRecord, len(k.records))
	copy(out, k.records)
	return out
}

// SetStrategy replaces the VM transfer strategy used for migrations that
// leave this kernel.
func (k *Kernel) SetStrategy(s TransferStrategy) { k.strategy = s }

// SetMigrationVersion overrides the kernel's migration version (failure
// injection for version-mismatch behaviour).
func (k *Kernel) SetMigrationVersion(v int) { k.migrationVersion = v }

// --- idle detection (Sprite's load daemon) ---

// NoteInput records user input (keyboard/mouse) at the host.
func (k *Kernel) NoteInput(now time.Duration) { k.lastInput = now }

// LastInput returns the time of the most recent user input.
func (k *Kernel) LastInput() time.Duration { return k.lastInput }

// LoadAverage returns the host's smoothed runnable-process count.
func (k *Kernel) LoadAverage(now time.Duration) float64 { return k.cpu.LoadAverage(now) }

// Available reports whether the host would advertise itself as an idle
// migration target: low load and no recent user input.
func (k *Kernel) Available(now time.Duration) bool {
	if k.cpu.LoadAverage(now) >= k.params.IdleLoadThreshold {
		return false
	}
	return now-k.lastInput >= k.params.IdleInputAge
}

// --- process lifecycle ---

// ProcConfig sizes a process image.
type ProcConfig struct {
	// Binary is the program file backing the code segment ("" for none).
	Binary string
	// CodePages, HeapPages, StackPages size the segments.
	CodePages  int
	HeapPages  int
	StackPages int
	// Args are the exec arguments (their size is charged on exec-time
	// migration).
	Args []string
}

// StartProcess launches a new top-level process on this host. Its home is
// this kernel. The returned process runs in its own activity; use
// Exited().Wait to join it.
func (k *Kernel) StartProcess(env *sim.Env, name string, prog Program, cfg ProcConfig) (*Process, error) {
	p, err := k.newProcess(env, name, prog, cfg, nil)
	if err == nil {
		k.adopt(p)
		k.launch(env, p, cfg)
	}
	return p, err
}

// newProcess builds a PCB on this host before any home kernel hears of it.
// A forked child (parent set) is homed at its parent's home and inherits the
// working directory, the signal dispositions and the descriptor table, each
// entry sharing the stream (and its access position).
func (k *Kernel) newProcess(env *sim.Env, name string, prog Program, cfg ProcConfig, parent *Process) (*Process, error) {
	p := &Process{
		name:      name,
		state:     StateRunning,
		home:      k,
		cur:       k,
		program:   prog,
		args:      cfg.Args,
		exited:    sim.NewFuture(),
		evictable: true,
		created:   env.Now(),
	}
	if parent == nil {
		return p, nil
	}
	p.home, p.parent, p.cwd = parent.home, parent.pid, parent.cwd
	if len(parent.handlers) > 0 {
		p.handlers = maps.Clone(parent.handlers)
	}
	if len(parent.files) > 0 {
		p.files = make([]*fs.Stream, len(parent.files))
		for fd, st := range parent.files {
			if st == nil {
				continue
			}
			if err := k.fsc.Dup(st); err != nil {
				_ = p.closeFiles(env) // the parent's references keep the streams open
				return nil, fmt.Errorf("fork: dup fd %d: %w", fd, err)
			}
			p.files[fd] = st
		}
	}
	return p, nil
}

// adopt is the home half of fork and of a top-level start, run by p's home
// kernel: it allocates the pid of a process its caller has already built and
// records the family. A child joins its parent's process group; a process
// with no parent here leads its own.
func (k *Kernel) adopt(p *Process) {
	k.pidSeq++
	p.pid = PID{Home: k.host, Seq: k.pidSeq}
	p.pidName = p.pid.String()
	p.homeEpoch = k.ep.Epoch()
	rec := &homeRecord{pid: p.pid, proc: p, location: p.cur.host, parent: p.parent, pgrp: p.pid}
	if prec := k.homeRecs[p.parent]; prec != nil {
		rec.pgrp = prec.pgrp
		if prec.children == nil { // most processes never fork
			prec.children = make(map[PID]bool)
		}
		prec.children[p.pid] = true
	}
	k.homeRecs[p.pid] = rec
}

// launch starts an adopted process on this, its current host.
func (k *Kernel) launch(env *sim.Env, p *Process, cfg ProcConfig) {
	k.procs[p.pid] = p
	k.stats.ProcsStarted++
	k.cluster.noteStart(p.pid)
	env.Emit(p.traceEvent(trace.ProcStart, k.host))
	// The process activity belongs to its host's shard, whatever shard the
	// caller runs on. A confined caller may only spawn onto its own shard,
	// so a process started from another host's shard fails here.
	env.SpawnOn(k.cluster.shardOf(k.host), "proc-"+p.pidName+"-"+p.name, func(penv *sim.Env) error {
		return k.runProcess(penv, p, cfg)
	})
}

// runProcess is the body of a process activity: build the image, run the
// program, tear down.
func (k *Kernel) runProcess(env *sim.Env, p *Process, cfg ProcConfig) error {
	p.ctx = Ctx{proc: p, env: env}
	ctx := &p.ctx
	if err := p.buildSpace(env, p.name, cfg); err != nil {
		if p.crashed {
			return nil // destroyProcess already did the bookkeeping
		}
		p.finishExit(env, -1)
		return fmt.Errorf("proc %v: build space: %w", p.pid, err)
	}
	err := p.program(ctx)
	if p.crashed {
		return nil
	}
	if err == errExit {
		err = nil
	}
	if err == ErrKilled {
		p.exitStatus = -1
		err = nil
	}
	if err != nil {
		p.finishExit(env, -1)
		return fmt.Errorf("proc %v (%s): %w", p.pid, p.name, err)
	}
	if err := p.exitCleanup(env); err != nil {
		if p.crashed {
			return nil
		}
		return err
	}
	return nil
}

// buildSpace creates the process's address space on its current host.
func (p *Process) buildSpace(env *sim.Env, name string, cfg ProcConfig) error {
	space, err := vm.New(env, p.cur.fsc, p.pidName+"-"+name, vm.Config{
		CodePages:  cfg.CodePages,
		HeapPages:  cfg.HeapPages,
		StackPages: cfg.StackPages,
		BinaryPath: cfg.Binary,
	}, p.cur.params.VM)
	if err != nil {
		return err
	}
	space.SetCPU(p)
	p.space = space
	return nil
}

// ChargeCPU charges d to the process on its current host (it is a vm.CPU).
func (p *Process) ChargeCPU(env *sim.Env, d time.Duration) error {
	p.cpuUsed += d
	return p.cur.cpu.Compute(env, d)
}

// discardSpace closes the address space's backing streams and removes its
// swap files.
func (p *Process) discardSpace(env *sim.Env) error {
	if p.space == nil {
		return nil
	}
	c := p.cur.fsc
	for _, seg := range p.space.Segments() {
		st := seg.Backing
		if st == nil {
			continue
		}
		path := st.Path
		for st.RefsOn(c.Host()) > 0 {
			if err := c.Close(env, st); err != nil {
				if errors.Is(err, rpc.ErrHostDown) || errors.Is(err, rpc.ErrTimeout) {
					// The I/O server is down. Sprite servers rebuild their
					// open tables from the clients during recovery, and the
					// client dropped the ref before calling, so it is simply
					// never re-registered.
					continue
				}
				return err
			}
		}
		if seg.Kind != vm.CodeSegment {
			if err := c.Remove(env, path); err != nil {
				if errors.Is(err, rpc.ErrHostDown) || errors.Is(err, rpc.ErrTimeout) {
					continue // the server lost the swap file with its tables
				}
				return err
			}
		}
	}
	p.space = nil
	return nil
}

// exitCleanup performs orderly process teardown: close descriptors, discard
// the address space, notify home, wake the parent.
func (p *Process) exitCleanup(env *sim.Env) error {
	k := p.cur
	if err := p.closeFiles(env); err != nil {
		return err
	}
	if err := p.discardSpace(env); err != nil {
		return fmt.Errorf("proc %v: discard space: %w", p.pid, err)
	}
	if d := k.params.ExitCPU; d > 0 {
		if err := k.cpu.Compute(env, d); err != nil {
			return err
		}
	}
	if p.Foreign() && !k.cluster.transport.Confined() {
		// Confined clusters skip this: finishExit itself sends the notify, so
		// error-path exits (which bypass exitCleanup) also settle the home.
		if _, err := kExitNotify.Call(k.ep, env, p.home.host, exitNotifyArgs{
			PID: p.pid, Status: p.exitStatus,
		}, 32); err != nil {
			// A crashed home machine cannot take the notification; the exit
			// still completes here (there is no record left to settle there).
			if !errors.Is(err, rpc.ErrHostDown) && !errors.Is(err, rpc.ErrTimeout) {
				return fmt.Errorf("proc %v: exit notify: %w", p.pid, err)
			}
		}
	}
	p.finishExit(env, p.exitStatus)
	return nil
}

// closeFiles closes the descriptor table's entries.
func (p *Process) closeFiles(env *sim.Env) error {
	for fd, st := range p.files {
		if st == nil {
			continue
		}
		p.files[fd] = nil
		if err := p.cur.fsc.Close(env, st); err != nil {
			if errors.Is(err, rpc.ErrHostDown) || errors.Is(err, rpc.ErrTimeout) {
				// The stream's I/O server is down. The client dropped the ref
				// before calling, and the server rebuilds open tables from
				// surviving clients on recovery, so it won't be re-registered.
				continue
			}
			return fmt.Errorf("proc %v: close fd %d: %w", p.pid, fd, err)
		}
	}
	return nil
}

// finishExit updates tables and resolves futures. On ordinary clusters it
// charges no time; on a confined cluster a foreign exit sends the
// k.exitNotify RPC from here, because the home half — the record, the
// process's visible state, and the exited future (whose waiters live on the
// home shard) — must settle on the home host's shard, and routing it through
// finishExit covers the error-path exits that never reach exitCleanup.
func (p *Process) finishExit(env *sim.Env, status int) {
	k := p.cur
	delete(k.procs, p.pid)
	k.stats.ProcsExited++
	k.cluster.noteEnd(p.pid)
	ev := p.traceEvent(trace.ProcExit, k.host)
	ev.Status = status
	env.Emit(ev)
	if k.cluster.transport.Confined() && p.Foreign() {
		p.failPendingMigration(env, "exited before migration")
		if _, err := kExitNotify.Call(k.ep, env, p.home.host, exitNotifyArgs{
			PID: p.pid, Status: status,
		}, 32); err != nil {
			// No crashes under confinement, so the home is reachable by
			// contract; a failure here is a bug, and swallowing it would hang
			// every waiter on p.exited.
			panic(fmt.Sprintf("core: confined exit notify for %v: %v", p.pid, err))
		}
		return
	}
	p.state = StateExited
	p.exitStatus = status
	p.home.recordExit(env, p.pid, status)
	p.failPendingMigration(env, "exited before migration")
	p.exited.Complete(env, status, nil)
}

// recordExit runs at the home kernel: detach the record, end a Wait of the
// process still pending here, and queue the exit for the parent's Wait.
func (k *Kernel) recordExit(env *sim.Env, pid PID, status int) {
	rec := k.homeRecs[pid]
	if rec == nil {
		return
	}
	delete(k.homeRecs, pid)
	// Killed while blocked in Wait, the process is gone, but a migrated
	// caller's wait half may still block here, in a handler of its own.
	rec.wake(env, ErrNoSuchProcess)
	prec := k.homeRecs[rec.parent]
	if prec == nil {
		return // orphan: no one will wait
	}
	delete(prec.children, pid)
	prec.exits = append(prec.exits, childExit{pid: pid, status: status})
	prec.wake(env, nil)
}

// wake ends the Wait pending on rec, if any, with err (nil: a child exited).
func (rec *homeRecord) wake(env *sim.Env, err error) {
	if w := rec.waiter; w != nil {
		rec.waiter = nil
		w.Complete(env, nil, err)
	}
}

// waitChild is Wait's home half: it returns an exited child of parent,
// blocking until one exits. Waits of one parent share one pending future.
func (k *Kernel) waitChild(env *sim.Env, parent PID) (PID, int, error) {
	for {
		rec := k.homeRecs[parent]
		if rec == nil {
			return NilPID, 0, fmt.Errorf("%w: %v", ErrNoSuchProcess, parent)
		}
		if len(rec.exits) > 0 {
			ce := rec.exits[0]
			rec.exits = rec.exits[1:]
			return ce.pid, ce.status, nil
		}
		if len(rec.children) == 0 {
			return NilPID, 0, ErrNoChildren
		}
		if rec.waiter == nil {
			rec.waiter = sim.NewFuture()
		}
		if _, err := rec.waiter.Wait(env); err != nil {
			return NilPID, 0, err
		}
	}
}

// family runs a process-family call's home half for the caller a.PID at
// this, its home kernel, whether the caller runs here or came through
// k.forward: fork adopts the child, wait waits for one, and getpgrp and
// setpgrp read and write the caller's group. Other calls have none.
func (k *Kernel) family(env *sim.Env, a forwardArgs) (r forwardReply) {
	switch a.Call {
	case "fork":
		k.adopt(a.Child)
	case "wait":
		r.PID, r.Status, r.Err = k.waitChild(env, a.PID)
	case "getpgrp", "setpgrp":
		rec := k.homeRecs[a.PID]
		switch {
		case rec == nil:
			r.Err = fmt.Errorf("%w: %v", ErrNoSuchProcess, a.PID)
		case a.Call == "setpgrp":
			rec.pgrp = a.PID
		default:
			r.PID = rec.pgrp
		}
	}
	return r
}

// Processes returns the processes currently executing on this host.
func (k *Kernel) Processes() []*Process {
	out := make([]*Process, 0, len(k.procs))
	for _, p := range k.procs {
		out = append(out, p)
	}
	sortProcs(out)
	return out
}

// ForeignProcesses returns the processes executing here whose home is
// elsewhere.
func (k *Kernel) ForeignProcesses() []*Process {
	var out []*Process
	for _, p := range k.procs {
		if p.Foreign() {
			out = append(out, p)
		}
	}
	sortProcs(out)
	return out
}

// HomeProcessCount returns the number of live processes whose home is this
// host (wherever they run) — what Sprite's ps shows on the home machine.
func (k *Kernel) HomeProcessCount() int { return len(k.homeRecs) }

// ProcessListing is one row of the home machine's ps output.
type ProcessListing struct {
	PID      PID
	Name     string
	State    ProcessState
	Location rpc.HostID
	Foreign  bool
	CPUUsed  time.Duration
}

// ListHomeProcesses returns ps-style rows for every live process whose
// home is this host, wherever each currently runs. Migration transparency
// means a user's processes always appear on their own machine's listing,
// never on the hosts actually running them (contrast LOCUS, where remote
// processes show up in the remote site's listing).
func (k *Kernel) ListHomeProcesses() []ProcessListing {
	out := make([]ProcessListing, 0, len(k.homeRecs))
	for _, rec := range k.homeRecs {
		p := rec.proc
		out = append(out, ProcessListing{
			PID:      p.pid,
			Name:     p.name,
			State:    p.state,
			Location: rec.location,
			Foreign:  rec.location != k.host,
			CPUUsed:  p.cpuUsed,
		})
	}
	slices.SortFunc(out, func(a, b ProcessListing) int { return a.PID.Compare(b.PID) })
	return out
}

// LocationOf returns where a home process currently runs.
func (k *Kernel) LocationOf(pid PID) (rpc.HostID, error) {
	rec := k.homeRecs[pid]
	if rec == nil {
		return rpc.NoHost, fmt.Errorf("%w: %v", ErrNoSuchProcess, pid)
	}
	return rec.location, nil
}

func sortProcs(ps []*Process) {
	slices.SortFunc(ps, func(a, b *Process) int { return a.pid.Compare(b.pid) })
}

// --- RPC wire types and handlers ---

type (
	migInitArgs struct {
		PID     PID
		Version int
	}
	updateLocArgs struct {
		PID PID
		Loc rpc.HostID
	}
	exitNotifyArgs struct {
		PID    PID
		Status int
	}
	killArgs struct {
		PID PID
		// Sig selects the signal; the zero value means SIGKILL for
		// compatibility with plain kill.
		Sig Signal
	}
	fetchPageArgs struct {
		PID  PID
		Page int
	}
	migPagesArgs struct {
		PID   PID
		Pages int
	}
)

// The k.* kernel-to-kernel services.
var (
	kMigInit    = rpc.NewService[migInitArgs, struct{}]("k.migInit")
	kMigPCB     = rpc.NewService[*Process, struct{}]("k.migPCB")
	kMigAbort   = rpc.NewService[*Process, struct{}]("k.migAbort")
	kUpdateLoc  = rpc.NewService[updateLocArgs, struct{}]("k.updateLoc")
	kExitNotify = rpc.NewService[exitNotifyArgs, struct{}]("k.exitNotify")
	kKill       = rpc.NewService[killArgs, struct{}]("k.kill")
	kKillLocal  = rpc.NewService[killArgs, struct{}]("k.kill2")
	kKillpg     = rpc.NewService[killArgs, int]("k.killpg") // replies with the members signalled
	kFetchPage  = rpc.NewService[fetchPageArgs, struct{}]("k.fetchPage")
	kMigPages   = rpc.NewService[migPagesArgs, struct{}]("k.migPages")

	// EvictService asks a host's kernel to evict every foreign process
	// (Kernel.EvictAll): the central host selector's reclaim path.
	EvictService = rpc.NewService[struct{}, struct{}]("k.evict")
)

// handleForward serves a home-forwarded call: one kernel-call dispatch on
// the home CPU, then the call's home half.
func (k *Kernel) handleForward(env *sim.Env, from rpc.HostID, a forwardArgs) (forwardReply, int, error) {
	if err := k.cpu.Compute(env, k.params.SyscallCPU); err != nil {
		return forwardReply{}, 0, err
	}
	return k.family(env, a), 32, nil
}

func (k *Kernel) handleMigInit(env *sim.Env, from rpc.HostID, a migInitArgs) (struct{}, int, error) {
	if a.Version != k.migrationVersion {
		return struct{}{}, 0, fmt.Errorf("%w: source %d, target %d", ErrVersionMismatch, a.Version, k.migrationVersion)
	}
	if err := k.cpu.Compute(env, k.params.MigInitCPU); err != nil {
		return struct{}{}, 0, err
	}
	return struct{}{}, 16, nil
}

func (k *Kernel) handleMigPCB(env *sim.Env, from rpc.HostID, p *Process) (struct{}, int, error) {
	if err := k.cpu.Compute(env, k.params.MigPCBCPU); err != nil {
		return struct{}{}, 0, err
	}
	if k.ep.Down() { // unconfined, this host's crash does not interrupt the caller
		return struct{}{}, 0, fmt.Errorf("%w: %v", rpc.ErrHostDown, k.host)
	}
	k.procs[p.pid] = p
	k.stats.MigrationsIn++
	return struct{}{}, 16, nil
}

// handleMigAbort undoes this host's half of p's aborted migration from src
// (rollBack): it drops the PCB if installed, applies the fs records carried
// for it and moves each moved stream back, newest first, popping it first so
// a crash of src meanwhile releases (destroyProcess) only the rest. The
// records its moves defer for src ride back on p.
func (k *Kernel) handleMigAbort(env *sim.Env, src rpc.HostID, p *Process) (struct{}, int, error) {
	if _, ghost := k.procs[p.pid]; ghost {
		delete(k.procs, p.pid)
		k.stats.MigrationsIn--
	}
	if len(p.migMoved) == 0 { // nothing moved, or a repeated call: p.migRecon is src's
		return struct{}{}, 8, nil
	}
	p.migRecon = k.fsc.ApplyReconciles(p.migRecon)
	for n := len(p.migMoved); n > 0 && !p.crashed; n = len(p.migMoved) {
		st := p.migMoved[n-1]
		p.migMoved = p.migMoved[:n-1]
		err := k.fsc.MoveStream(env, st, src)
		switch {
		case p.crashed:
			// src died during the move back, scrubbing the reference shifted
			// there: align both hosts' server entries with the clients.
			k.cluster.fs.RecoverStream(st, src, k.host)
		case err != nil:
			k.cluster.fs.RecoverStream(st, k.host, src)
		}
	}
	p.migRecon = k.fsc.AppendReconciles(p.migRecon)
	return struct{}{}, 8, nil
}

func (k *Kernel) handleUpdateLoc(env *sim.Env, from rpc.HostID, a updateLocArgs) (struct{}, int, error) {
	if rec := k.homeRecs[a.PID]; rec != nil {
		rec.location = a.Loc
	}
	return struct{}{}, 8, nil
}

func (k *Kernel) handleExitNotify(env *sim.Env, from rpc.HostID, a exitNotifyArgs) (struct{}, int, error) {
	// On ordinary clusters this is bookkeeping cost only; recordExit is
	// invoked by finishExit on the process side (shared memory in the
	// simulator). On a confined cluster the notification IS the settlement:
	// the dispatcher runs on this (home) shard, so the record, the process's
	// visible state, and the exited future resolve here.
	if err := k.cpu.Compute(env, k.params.SyscallCPU); err != nil {
		return struct{}{}, 0, err
	}
	if k.cluster.transport.Confined() {
		rec := k.homeRecs[a.PID]
		if rec == nil {
			panic(fmt.Sprintf("core: confined exit notify for unknown %v", a.PID))
		}
		p := rec.proc
		p.state = StateExited
		p.exitStatus = a.Status
		k.recordExit(env, a.PID, a.Status)
		p.exited.Complete(env, a.Status, nil)
	}
	return struct{}{}, 8, nil
}

func (k *Kernel) handleKill(env *sim.Env, from rpc.HostID, a killArgs) (struct{}, int, error) {
	rec := k.homeRecs[a.PID]
	if rec == nil {
		return struct{}{}, 0, fmt.Errorf("%w: %v", ErrNoSuchProcess, a.PID)
	}
	if rec.location != k.host {
		// Route onward to the process's current location.
		if _, err := kKillLocal.Call(k.ep, env, rec.location, a, 16); err != nil {
			return struct{}{}, 0, err
		}
		return struct{}{}, 8, nil
	}
	rec.proc.post(env, normalizeSig(a.Sig))
	return struct{}{}, 8, nil
}

// normalizeSig maps the zero value to SIGKILL (the plain-kill wire format).
func normalizeSig(s Signal) Signal {
	if s == 0 {
		return SigKill
	}
	return s
}

// handleKillLocal delivers a routed signal at the process's current location.
func (k *Kernel) handleKillLocal(env *sim.Env, from rpc.HostID, a killArgs) (struct{}, int, error) {
	p := k.procs[a.PID]
	if p == nil {
		return struct{}{}, 0, fmt.Errorf("%w: %v", ErrNoSuchProcess, a.PID)
	}
	p.post(env, normalizeSig(a.Sig))
	return struct{}{}, 8, nil
}

func (k *Kernel) handleEvict(env *sim.Env, from rpc.HostID, _ struct{}) (struct{}, int, error) {
	if err := k.EvictAll(env); err != nil {
		return struct{}{}, 0, err
	}
	return struct{}{}, 8, nil
}

// handleFetchPage serves copy-on-reference pulls from this (source) host.
func (k *Kernel) handleFetchPage(env *sim.Env, from rpc.HostID, _ fetchPageArgs) (struct{}, int, error) {
	if err := k.cpu.Compute(env, k.params.VM.FaultCPU); err != nil {
		return struct{}{}, 0, err
	}
	return struct{}{}, k.params.VM.PageSize + k.params.PageWireOverhead, nil
}

// handleMigPages accepts a bulk page shipment at the target of a direct-copy
// migration (full-copy, pre-copy). The pages landed via the bulk fragment
// stream, whose wire cost the caller already paid; installing them costs one
// fault's worth of CPU for the mapping batch.
func (k *Kernel) handleMigPages(env *sim.Env, from rpc.HostID, _ migPagesArgs) (struct{}, int, error) {
	if err := k.cpu.Compute(env, k.params.VM.FaultCPU); err != nil {
		return struct{}{}, 0, err
	}
	return struct{}{}, 16, nil
}
