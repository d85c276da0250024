package core

import (
	"cmp"
	"errors"
	"slices"
	"strconv"
	"time"

	"sprite/internal/fs"
	"sprite/internal/rpc"
	"sprite/internal/sim"
	"sprite/internal/trace"
	"sprite/internal/vm"
)

// Errors visible to programs and kernels.
var (
	// ErrKilled is delivered to a program when its process is killed.
	ErrKilled = errors.New("core: process killed")
	// ErrNoSuchProcess is returned for operations on unknown pids.
	ErrNoSuchProcess = errors.New("core: no such process")
	// ErrNotMigratable is returned when a process refuses migration (e.g.
	// it uses shared writable memory, which Sprite disallows migrating).
	ErrNotMigratable = errors.New("core: process not migratable")
	// ErrBadFD is returned for operations on invalid file descriptors.
	ErrBadFD = errors.New("core: bad file descriptor")
	// ErrVersionMismatch is returned when source and target kernels have
	// incompatible migration versions.
	ErrVersionMismatch = errors.New("core: migration version mismatch")
	// ErrNoChildren is returned by Wait when the process has no children.
	ErrNoChildren = errors.New("core: no children to wait for")
	// ErrHostCrashed is delivered to a program when the host it runs on (or
	// its home machine) crashes under fault injection.
	ErrHostCrashed = errors.New("core: host crashed")

	// errExit is the internal unwinding sentinel used by Ctx.Exit.
	errExit = errors.New("core: process exited")
)

// CrashStatus is the exit status recorded for a process destroyed by a host
// crash (distinct from the -1 used for kills and program errors).
const CrashStatus = -2

// PID identifies a process. Sprite process ids encode the home machine: a
// process keeps its pid across migrations and the home field is how other
// kernels route process-specific operations.
type PID struct {
	Home rpc.HostID
	Seq  int
}

// Compare orders pids by home host, then sequence number: the one pid
// order every listing and audit walks in.
func (p PID) Compare(q PID) int {
	return cmp.Or(cmp.Compare(p.Home, q.Home), cmp.Compare(p.Seq, q.Seq))
}

// String renders the pid in "host.seq" form.
func (p PID) String() string { return p.Home.String() + "." + strconv.Itoa(p.Seq) }

// NilPID is the zero PID.
var NilPID = PID{}

// ProcessState describes a process's lifecycle.
type ProcessState int

// Process states.
const (
	StateRunning ProcessState = iota + 1
	StateMigrating
	StateExited
)

func (s ProcessState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateMigrating:
		return "migrating"
	case StateExited:
		return "exited"
	default:
		return "?"
	}
}

// Program is the body of a simulated user process. It runs as one sim
// activity and interacts with the world only through its Ctx — each Ctx
// method is a kernel call that implements its Appendix-A handling policy, so
// a program behaves identically before and after migration.
type Program func(ctx *Ctx) error

// migrationRequest is a pending migration set on a process; the process
// performs it at its next migration point (kernel-call entry or compute
// quantum boundary; at exec time when AtExec is set).
type migrationRequest struct {
	target *Kernel
	atExec bool
	reason string
	done   *sim.Future
}

// Process is a simulated Sprite user process.
type Process struct {
	pid     PID
	pidName string // pid.String(), built once for every name derived from it
	name    string
	uid     string
	state   ProcessState
	parent  PID

	home *Kernel // never changes: the transparency anchor
	cur  *Kernel // changes on migration

	// homeEpoch is the home host's boot epoch when the process started. The
	// reaping pass uses it to tell this incarnation's processes from ones
	// started after a reboot of the same address.
	homeEpoch rpc.Epoch
	// crashEpoch, for a crash-destroyed process, is the boot epoch of the
	// host it died on (set by destroyProcess; guards late reaping).
	crashEpoch rpc.Epoch

	space *vm.AddressSpace
	files []*fs.Stream // descriptor table; nil entries are closed fds

	program Program
	args    []string

	exited     *sim.Future // resolves to exit status (int)
	exitStatus int

	killed  bool
	crashed bool // destroyed by a host crash; the activity must unwind silently
	// sharedMemory marks the process as using shared writable memory,
	// which Sprite refuses to migrate.
	sharedMemory bool
	// evictable processes may be migrated away by host reclaiming.
	evictable bool
	// waiting marks the process blocked in Wait, which a SIGKILL ends.
	waiting    bool
	pending    []Signal
	handlers   map[Signal]SignalHandler
	contWaiter *sim.Future
	cwd        string
	migrateReq *migrationRequest
	// In-flight migration progress, maintained so crash injection can
	// release stream references a dead mid-migration process already moved
	// to a surviving target host.
	migTarget *Kernel
	migMoved  []*fs.Stream
	// migStreams is transferStreams' list of the streams to move. It and
	// migMoved share one array, sized by the first hop's stream count.
	migStreams []*fs.Stream
	// migRecon carries an fs client's stream-move bookkeeping across a
	// confined migration, to the target (confinedResume) or, after an
	// abort, to the target and back (rollBack, handleMigAbort).
	migRecon []fs.Reconcile
	// mig is the scratch each migration hop works in (see migScratch).
	mig migScratch
	// ctx is the program's Ctx; its Env is the one a crash interrupts.
	ctx Ctx

	migrations int
	cpuUsed    time.Duration
	created    time.Duration
}

// PID returns the process id.
func (p *Process) PID() PID { return p.pid }

// State returns the lifecycle state.
func (p *Process) State() ProcessState { return p.state }

// Home returns the home kernel.
func (p *Process) Home() *Kernel { return p.home }

// Current returns the kernel where the process currently executes.
func (p *Process) Current() *Kernel { return p.cur }

// Foreign reports whether the process executes away from home.
func (p *Process) Foreign() bool { return p.cur != p.home }

// traceEvent starts a trace event of the given kind about p on host.
func (p *Process) traceEvent(kind trace.Kind, host rpc.HostID) trace.Event {
	return trace.Event{Kind: kind, Home: int(p.pid.Home), Seq: p.pid.Seq, Name: p.name, Host: int(host)}
}

// Migrations returns how many times the process has migrated.
func (p *Process) Migrations() int { return p.migrations }

// HomeEpoch returns the home host's boot epoch when the process started.
func (p *Process) HomeEpoch() rpc.Epoch { return p.homeEpoch }

// CrashEpoch returns, for a crash-destroyed process, the boot epoch of the
// host it died on (0 otherwise).
func (p *Process) CrashEpoch() rpc.Epoch { return p.crashEpoch }

// Space returns the process's address space.
func (p *Process) Space() *vm.AddressSpace { return p.space }

// CPUUsed returns accumulated compute time.
func (p *Process) CPUUsed() time.Duration { return p.cpuUsed }

// SetShared marks the process as using shared writable memory (it becomes
// non-migratable, as in Sprite).
func (p *Process) SetShared(shared bool) { p.sharedMemory = shared }

// SetEvictable controls whether eviction may move this process.
func (p *Process) SetEvictable(e bool) { p.evictable = e }

// Exited returns a future resolving to the exit status.
func (p *Process) Exited() *sim.Future { return p.exited }

// confinedResume finishes a migration's switch-over on a confined cluster:
// the process activity rehomes onto its new host's shard (arriving a
// lookahead later, which is what gives every source-side write of the
// migration a happens-before edge to target-side readers), then applies the
// stream bookkeeping the source shard pended for the destination fs client.
// On ordinary clusters it is a no-op, so callers need not branch.
func (p *Process) confinedResume(env *sim.Env) error {
	c := p.cur.cluster
	if shard := c.shardOf(p.cur.host); env.Shard() != shard {
		if err := env.Rehome(shard, c.sim.Lookahead()); err != nil {
			return err
		}
	}
	p.migRecon = p.cur.fsc.ApplyReconciles(p.migRecon)
	return nil
}

// openStreams appends the descriptor table's distinct open streams to dst.
func (p *Process) openStreams(dst []*fs.Stream) []*fs.Stream {
	n := len(dst)
	for _, st := range p.files {
		if st != nil && !slices.Contains(dst[n:], st) {
			dst = append(dst, st)
		}
	}
	return dst
}

// allStreams appends to dst every stream the process holds a reference
// through: the open descriptors plus the VM segments' backing streams — what
// a migration moves and a crash scrubs.
func (p *Process) allStreams(dst []*fs.Stream) []*fs.Stream {
	streams := p.openStreams(dst)
	if p.space != nil {
		for _, seg := range p.space.Segments() {
			if seg.Backing != nil {
				streams = append(streams, seg.Backing)
			}
		}
	}
	return streams
}

// Ctx is a program's window onto the kernel: its system call interface.
type Ctx struct {
	proc *Process
	env  *sim.Env
}

// Process returns the calling process.
func (c *Ctx) Process() *Process { return c.proc }

// Env returns the simulation environment (for Sleep in workload code).
func (c *Ctx) Env() *sim.Env { return c.env }

// Now returns the current virtual time.
func (c *Ctx) Now() time.Duration { return c.env.Now() }
