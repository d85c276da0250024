package core

import (
	"fmt"
	"time"

	"sprite/internal/fs"
	"sprite/internal/rpc"
	"sprite/internal/sim"
	"sprite/internal/trace"
)

// HandlingPolicy classifies how a kernel call behaves for a migrated
// (foreign) process — the content of the thesis's Appendix A. Sprite keeps
// remote execution transparent by choosing, per call, whether to execute it
// on the current host, forward it to the home machine, or rely on state that
// migration transferred.
type HandlingPolicy int

// Handling policies.
const (
	// PolicyLocal: executes entirely on the current host with no
	// location-dependent state (e.g. getpid — the pid travels in the PCB).
	PolicyLocal HandlingPolicy = iota + 1
	// PolicyFile: handled by the network file system, which is already
	// location transparent (open/read/write/...).
	PolicyFile
	// PolicyHome: forwarded to the home machine because it touches state
	// kept there (process families, host-specific identity, time kept
	// consistent with home).
	PolicyHome
	// PolicyTransfer: depends on state that migration moves with the
	// process (address space, descriptor table); executes locally after
	// transfer.
	PolicyTransfer
	// PolicyDenied: refused for migrated processes (Sprite refuses to
	// migrate processes that would need it, e.g. shared writable memory
	// mappings).
	PolicyDenied
)

func (h HandlingPolicy) String() string {
	switch h {
	case PolicyLocal:
		return "local"
	case PolicyFile:
		return "file-system"
	case PolicyHome:
		return "forwarded-home"
	case PolicyTransfer:
		return "transferred-state"
	case PolicyDenied:
		return "denied"
	default:
		return "?"
	}
}

// SyscallTable is the per-call handling classification, reconstructed from
// Appendix A ("Handling of UNIX system calls in Sprite"). The 4.3BSD call
// set is grouped by the policy that applies to a remote process. Calls the
// simulation actually models are dispatched through this table; the rest
// document the classification (and are exercised generically by the
// conformance tests).
var SyscallTable = map[string]HandlingPolicy{
	// Local: depend only on state carried in the PCB.
	"getpid": PolicyLocal, "getppid": PolicyLocal, "getuid": PolicyLocal,
	"geteuid": PolicyLocal, "getgid": PolicyLocal, "umask": PolicyLocal,
	"sbrk": PolicyLocal, "getrlimit": PolicyLocal, "setrlimit": PolicyLocal,
	"sigsetmask": PolicyLocal, "sigblock": PolicyLocal, "sigpause": PolicyLocal,
	"getwd": PolicyLocal, "sleep": PolicyLocal,

	// File system: location transparent through the shared FS.
	"open": PolicyFile, "close": PolicyFile, "read": PolicyFile,
	"write": PolicyFile, "lseek": PolicyFile, "dup": PolicyFile,
	"dup2": PolicyFile, "pipe": PolicyFile, "stat": PolicyFile,
	"fstat": PolicyFile, "unlink": PolicyFile, "rename": PolicyFile,
	"mkdir": PolicyFile, "rmdir": PolicyFile, "chdir": PolicyFile,
	"chmod": PolicyFile, "chown": PolicyFile, "truncate": PolicyFile,
	"fsync": PolicyFile, "select": PolicyFile, "ioctl": PolicyFile,

	// Forwarded home: process family, host identity, time, signals to
	// other processes, and migration initiation itself.
	"fork": PolicyHome, "wait": PolicyHome, "kill": PolicyHome,
	"gettimeofday": PolicyHome, "settimeofday": PolicyHome,
	"getpgrp": PolicyHome, "setpgrp": PolicyHome, "setpriority": PolicyHome,
	"getpriority": PolicyHome, "gethostname": PolicyHome,
	"getrusage": PolicyHome, "migrate": PolicyHome,

	// Transferred state: correct locally once migration has moved the
	// state they depend on.
	"exec": PolicyTransfer, "exit": PolicyTransfer, "brk": PolicyTransfer,
	"sigvec": PolicyTransfer, "sigreturn": PolicyTransfer,

	// Denied for migrated processes.
	"mmap-shared": PolicyDenied, "ptrace": PolicyDenied,
}

// forwardArgs is the wire format of a home-forwarded kernel call.
type forwardArgs struct {
	PID  PID
	Call string
}

var kForward = rpc.NewService[forwardArgs, struct{}]("k.forward")

// migrationPoint is what every kernel-call entry and every compute quantum
// boundary does first: it is the kill point, the point where a pending
// migration is performed, and the signal-delivery point.
func (c *Ctx) migrationPoint() error {
	p := c.proc
	if p.killed {
		return ErrKilled
	}
	if req := p.migrateReq; req != nil && !req.atExec {
		if err := c.performMigration(req); err != nil {
			return err
		}
	}
	return c.deliverPending()
}

// performMigration carries out req in the process's own activity — the one
// place a migration is run, whichever migration point took the request —
// then resolves the requester's future and finishes the switch-over on the
// target's shard. An abort has already restored the process on the source,
// so what it means depends on who asked: an explicit Migrate (no future)
// reports it to its caller, a requested migration reports it to the
// requester and the process runs on, and an exec demotes to a local exec.
// Only a process killed or crashed mid-flight unwinds.
func (c *Ctx) performMigration(req *migrationRequest) error {
	p := c.proc
	p.migrateReq = nil
	err := p.cur.migrate(c.env, p, req)
	dead := p.crashed || p.killed
	if err != nil && req.atExec && !dead {
		// An aborted exec-time migration leaves the process intact on the
		// source; Sprite demotes it to a plain local exec.
		ev := p.traceEvent(trace.ExecMigrateAbort, p.cur.host)
		ev.Peer, ev.Err = int(req.target.host), err.Error()
		c.env.Emit(ev)
		err = nil
	}
	if err == nil {
		if req.done != nil {
			// Complete before rehoming: the requester waits on the source
			// shard, where this activity still runs.
			req.done.Complete(c.env, p.cur.host, nil)
		}
		return p.confinedResume(c.env)
	}
	if req.done == nil {
		return err
	}
	req.done.Complete(c.env, nil, err)
	if !dead {
		return nil
	}
	if !p.crashed {
		// Killed mid-flight: the abort still rolled the process back onto
		// the source, so it unwinds by its kill, not by the failed transfer.
		return ErrKilled
	}
	kind := "migrate"
	if req.atExec {
		kind = "exec-migrate"
	}
	return fmt.Errorf("%s %v: %w", kind, p.pid, err)
}

// enter is the common kernel-call prologue: the migration point, then the
// local trap overhead.
func (c *Ctx) enter(call string) error {
	p := c.proc
	if err := c.migrationPoint(); err != nil {
		return err
	}
	if d := p.cur.params.SyscallCPU; d > 0 {
		if err := p.cur.cpu.Compute(c.env, d); err != nil {
			return err
		}
		p.cpuUsed += d
	}
	// The Remote UNIX baseline: every call of a foreign process pays a
	// round trip home, regardless of its Appendix-A classification.
	c.forwarded = false
	if p.cur.forwardAll && p.Foreign() {
		if err := c.forwardHome(call); err != nil {
			return err
		}
		c.forwarded = true
	}
	return nil
}

// forwardHome charges a home-forwarded call's round trip when the process is
// foreign. The home kernel's handler does the (trivial) work; the latency is
// the point.
func (c *Ctx) forwardHome(call string) error {
	p := c.proc
	if !p.Foreign() || c.forwarded {
		return nil
	}
	_, err := kForward.Call(p.cur.ep, c.env, p.home.host, forwardArgs{PID: p.pid, Call: call}, 64)
	if err != nil {
		return fmt.Errorf("forward %s home: %w", call, err)
	}
	p.cur.stats.ForwardedCalls++
	return nil
}

// enterHome is the prologue of a call whose policy is PolicyHome: enter,
// then the trip home if the process is foreign.
func (c *Ctx) enterHome(call string) error {
	if err := c.enter(call); err != nil {
		return err
	}
	return c.forwardHome(call)
}

// Syscall enters the kernel for a named call with no effect beyond the
// entry itself: trap cost, pending migration, and signal delivery. Services
// built outside the core package (pseudo-devices, for instance) use it so
// their operations are real kernel calls with real migration points.
func (c *Ctx) Syscall(name string) error { return c.enter(name) }

// --- Process identity and time ---

// GetPID returns the caller's pid (local policy: pid travels in the PCB).
func (c *Ctx) GetPID() (PID, error) {
	if err := c.enter("getpid"); err != nil {
		return NilPID, err
	}
	return c.proc.pid, nil
}

// GetTimeOfDay returns the current time, forwarded home for foreign
// processes so that a process family observes one clock.
func (c *Ctx) GetTimeOfDay() (time.Duration, error) {
	if err := c.enterHome("gettimeofday"); err != nil {
		return 0, err
	}
	return c.env.Now(), nil
}

// GetHostname returns the *home* host's name: Sprite forwards host-identity
// calls so migration stays invisible to the process.
func (c *Ctx) GetHostname() (string, error) {
	if err := c.enterHome("gethostname"); err != nil {
		return "", err
	}
	return c.proc.home.host.String(), nil
}

// --- Compute ---

// Compute consumes d of CPU time on the current host, checking for kill and
// migration at every scheduling quantum: quanta are the migration points for
// compute-bound processes.
func (c *Ctx) Compute(d time.Duration) error {
	p := c.proc
	for d > 0 {
		if err := c.migrationPoint(); err != nil {
			return err
		}
		slice := p.cur.params.CPUQuantum
		if d < slice {
			slice = d
		}
		if err := p.cur.cpu.Compute(c.env, slice); err != nil {
			return err
		}
		p.cpuUsed += slice
		d -= slice
	}
	if p.killed {
		return ErrKilled
	}
	return c.deliverPending()
}

// TouchHeap references n heap pages starting at page lo; write dirties them.
// Faults are serviced by the current segment pager (the file system in
// steady state; a strategy-specific pager right after migration).
func (c *Ctx) TouchHeap(lo, n int, write bool) error {
	if err := c.enter("brk"); err != nil {
		return err
	}
	return c.proc.space.TouchRange(c.env, c.proc.space.Heap, lo, lo+n, write)
}

// TouchCode references the first n code pages (program text execution).
func (c *Ctx) TouchCode(n int) error {
	if err := c.enter("brk"); err != nil {
		return err
	}
	return c.proc.space.TouchRange(c.env, c.proc.space.Code, 0, n, false)
}

// --- File system calls (location transparent through fs) ---

// Open opens a path (relative paths resolve against the working
// directory, which migrates with the PCB) and returns a file descriptor.
func (c *Ctx) Open(path string, mode fs.OpenMode, opts fs.OpenOptions) (int, error) {
	if err := c.enter("open"); err != nil {
		return -1, err
	}
	st, err := c.proc.cur.fsc.Open(c.env, c.proc.resolvePath(path), mode, opts)
	if err != nil {
		return -1, err
	}
	return c.proc.addStream(st), nil
}

// Read reads up to n bytes from fd.
func (c *Ctx) Read(fd, n int) ([]byte, error) {
	if err := c.enter("read"); err != nil {
		return nil, err
	}
	st, err := c.proc.stream(fd)
	if err != nil {
		return nil, err
	}
	return c.proc.cur.fsc.Read(c.env, st, n)
}

// ReadCount is Read for a caller that discards the contents: the same call,
// with the same costs, returning only how many bytes were read.
func (c *Ctx) ReadCount(fd, n int) (int, error) {
	if err := c.enter("read"); err != nil {
		return 0, err
	}
	st, err := c.proc.stream(fd)
	if err != nil {
		return 0, err
	}
	return c.proc.cur.fsc.ReadCount(c.env, st, n)
}

// Write writes data to fd.
func (c *Ctx) Write(fd int, data []byte) (int, error) {
	if err := c.enter("write"); err != nil {
		return 0, err
	}
	st, err := c.proc.stream(fd)
	if err != nil {
		return 0, err
	}
	return c.proc.cur.fsc.Write(c.env, st, data)
}

// WriteZeros is Write of n zero bytes for a caller whose contents do not
// matter: the same call, with the same costs, but the zeros are a length.
func (c *Ctx) WriteZeros(fd, n int) (int, error) {
	if err := c.enter("write"); err != nil {
		return 0, err
	}
	st, err := c.proc.stream(fd)
	if err != nil {
		return 0, err
	}
	return c.proc.cur.fsc.WriteZeros(c.env, st, n)
}

// Fsync forces fd's dirty blocks through to its file server, overriding
// the delayed write-back policy. Sprite programs that must survive a
// client crash — checkpointers above all — pay the synchronous server
// traffic for durability, exactly the trade delayed writes otherwise hide.
func (c *Ctx) Fsync(fd int) error {
	if err := c.enter("fsync"); err != nil {
		return err
	}
	st, err := c.proc.stream(fd)
	if err != nil {
		return err
	}
	return c.proc.cur.fsc.FlushFile(c.env, st.FID)
}

// Seek sets fd's access position.
func (c *Ctx) Seek(fd int, off int64) error {
	if err := c.enter("lseek"); err != nil {
		return err
	}
	st, err := c.proc.stream(fd)
	if err != nil {
		return err
	}
	return c.proc.cur.fsc.Seek(c.env, st, off)
}

// Close closes fd.
func (c *Ctx) Close(fd int) error {
	if err := c.enter("close"); err != nil {
		return err
	}
	st, err := c.proc.stream(fd)
	if err != nil {
		return err
	}
	c.proc.files[fd] = nil
	return c.proc.cur.fsc.Close(c.env, st)
}

// Dup duplicates fd, sharing the stream and its access position.
func (c *Ctx) Dup(fd int) (int, error) {
	if err := c.enter("dup"); err != nil {
		return -1, err
	}
	st, err := c.proc.stream(fd)
	if err != nil {
		return -1, err
	}
	if err := c.proc.cur.fsc.Dup(st); err != nil {
		return -1, err
	}
	return c.proc.addStream(st), nil
}

// StatTimes returns a file's size and modification time (virtual time of
// its last server-side change).
func (c *Ctx) StatTimes(path string) (int, time.Duration, error) {
	if err := c.enter("stat"); err != nil {
		return 0, 0, err
	}
	info, err := c.proc.cur.fsc.StatFull(c.env, c.proc.resolvePath(path))
	if err != nil {
		return 0, 0, err
	}
	return info.Size, info.MTime, nil
}

// Rename atomically renames a file (within one server's domain).
func (c *Ctx) Rename(from, to string) error {
	if err := c.enter("rename"); err != nil {
		return err
	}
	return c.proc.cur.fsc.Rename(c.env, c.proc.resolvePath(from), c.proc.resolvePath(to))
}

// ReadDir lists a directory's immediate children.
func (c *Ctx) ReadDir(dir string) ([]string, error) {
	if err := c.enter("readdir"); err != nil {
		return nil, err
	}
	return c.proc.cur.fsc.ReadDir(c.env, c.proc.resolvePath(dir))
}

// Pipe creates a pipe (buffered at the I/O server, so both ends survive
// migration) and returns its read and write file descriptors.
func (c *Ctx) Pipe() (int, int, error) {
	if err := c.enter("pipe"); err != nil {
		return -1, -1, err
	}
	r, w, err := c.proc.cur.fsc.CreatePipe(c.env)
	if err != nil {
		return -1, -1, err
	}
	return c.proc.addStream(r), c.proc.addStream(w), nil
}

// Stat returns a file's size.
func (c *Ctx) Stat(path string) (int, error) {
	if err := c.enter("stat"); err != nil {
		return 0, err
	}
	_, size, err := c.proc.cur.fsc.Stat(c.env, c.proc.resolvePath(path))
	return size, err
}

// Remove unlinks a path.
func (c *Ctx) Remove(path string) error {
	if err := c.enter("unlink"); err != nil {
		return err
	}
	return c.proc.cur.fsc.Remove(c.env, c.proc.resolvePath(path))
}

// --- Process management (forwarded home) ---

// Fork creates a child process running prog on the caller's current host.
// Pid allocation and family bookkeeping happen at home (forwarded for a
// foreign caller), so the child is a home-machine process wherever its
// parent happens to be running — Sprite's transparency rule.
func (c *Ctx) Fork(name string, prog Program, cfg ProcConfig) (*Process, error) {
	if err := c.enter("fork"); err != nil {
		return nil, err
	}
	p := c.proc
	if p.cur.cluster.transport.Confined() && p.Foreign() {
		// Fork allocates the pid and family record in the home kernel's
		// tables — another shard's state. The confined contract keeps
		// process-family calls on the home host (DESIGN.md §14).
		panic(&sim.ConfinedContractError{
			Op:     "Fork by migrated process",
			Host:   fmt.Sprintf("%v (on %v)", p.pid, p.cur.host),
			Reason: "pid allocation lives on the home shard",
		})
	}
	if err := c.forwardHome("fork"); err != nil {
		return nil, err
	}
	if d := p.cur.params.ForkCPU; d > 0 {
		if err := p.cur.cpu.Compute(c.env, d); err != nil {
			return nil, err
		}
		p.cpuUsed += d
	}
	child, err := p.cur.startProcess(c.env, name, prog, cfg, p)
	if err != nil {
		return nil, err
	}
	return child, nil
}

// Wait blocks until one of the caller's children exits and returns its pid
// and status. Child records live at home.
func (c *Ctx) Wait() (PID, int, error) {
	if err := c.enter("wait"); err != nil {
		return NilPID, 0, err
	}
	if c.proc.cur.cluster.transport.Confined() && c.proc.Foreign() {
		// waitChild blocks on the home kernel's records — another shard's
		// state and a cross-shard future wake (DESIGN.md §14).
		panic(&sim.ConfinedContractError{
			Op:     "Wait by migrated process",
			Host:   fmt.Sprintf("%v (on %v)", c.proc.pid, c.proc.cur.host),
			Reason: "child records live on the home shard",
		})
	}
	if err := c.forwardHome("wait"); err != nil {
		return NilPID, 0, err
	}
	return c.proc.home.waitChild(c.env, c.proc.pid)
}

// Kill terminates another process. The home machine of the target routes
// the signal to wherever the target currently runs.
func (c *Ctx) Kill(target PID) error {
	if err := c.enterHome("kill"); err != nil {
		return err
	}
	return c.proc.cur.cluster.signalPID(c.env, c.proc.cur, target, SigKill)
}

// Exit terminates the calling program with the given status. It unwinds the
// program by returning a sentinel that the process runner recognizes; the
// deferred teardown in the runner performs the actual exit work.
func (c *Ctx) Exit(status int) error {
	c.proc.exitStatus = status
	return errExit
}

// Migrate asks the kernel to migrate the calling process to target at the
// next migration point (i.e. immediately, since the caller is in a kernel
// call). Initiation is forwarded home, as in Appendix A.
func (c *Ctx) Migrate(target rpc.HostID) error {
	if err := c.enterHome("migrate"); err != nil {
		return err
	}
	k := c.proc.cur.cluster.KernelOn(target)
	if k == nil {
		return fmt.Errorf("%w: %v", rpc.ErrNoHost, target)
	}
	// The caller is already at a migration point (a kernel-call boundary),
	// so the migration happens inline in its own activity.
	p := c.proc
	if err := p.migratable(false); err != nil || k == p.cur {
		return err
	}
	return c.performMigration(&migrationRequest{target: k, reason: "explicit"})
}

// Exec replaces the process image: a fresh address space sized by cfg,
// running prog. If an exec-time migration is pending, the new image is
// created directly on the target host — the cheap path that remote
// invocation (pmake) uses, with no virtual memory to transfer.
func (c *Ctx) Exec(name string, prog Program, cfg ProcConfig) error {
	if err := c.enter("exec"); err != nil {
		return err
	}
	p := c.proc
	// Exec-time migration: move before building the new address space.
	if req := p.migrateReq; req != nil && req.atExec {
		if err := c.performMigration(req); err != nil {
			return err
		}
	}
	if d := p.cur.params.ExecCPU; d > 0 {
		if err := p.cur.cpu.Compute(c.env, d); err != nil {
			return err
		}
		p.cpuUsed += d
	}
	if err := p.discardSpace(c.env); err != nil {
		return err
	}
	if err := p.buildSpace(c.env, name, cfg); err != nil {
		return err
	}
	p.name = name
	p.program = prog
	p.args = cfg.Args
	// Run the new image inline: the activity is the process.
	err := prog(c)
	if err == errExit {
		err = nil
	}
	if err != nil {
		return err
	}
	return errExit // unwind: the old image never resumes
}

// --- descriptor table helpers ---

func (p *Process) addStream(st *fs.Stream) int {
	for i, s := range p.files {
		if s == nil {
			p.files[i] = st
			return i
		}
	}
	p.files = append(p.files, st)
	return len(p.files) - 1
}

func (p *Process) stream(fd int) (*fs.Stream, error) {
	if fd < 0 || fd >= len(p.files) || p.files[fd] == nil {
		return nil, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	return p.files[fd], nil
}
