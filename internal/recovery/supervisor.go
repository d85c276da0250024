package recovery

import (
	"errors"
	"fmt"
	"time"

	"sprite/internal/checkpoint"
	"sprite/internal/core"
	"sprite/internal/hostsel"
	"sprite/internal/metrics"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// ErrJobLost is the error a job's Done future resolves with when the
// supervisor gives up on it: either the restart budget is exhausted or the
// job died for a reason that is not a host crash (a genuine program
// failure is not the supervisor's to retry).
var ErrJobLost = errors.New("recovery: job lost")

// SupervisorParams configures checkpoint-backed failover.
type SupervisorParams struct {
	// MaxRestarts bounds how many times one job is restarted.
	MaxRestarts int
	// CheckpointEvery is the minimum gap between a job's checkpoints;
	// JobCtx.Checkpoint calls inside the gap are free no-ops, so programs
	// can offer checkpoints at every natural boundary and let the
	// supervisor pick the cadence.
	CheckpointEvery time.Duration
	// Dir is where checkpoint images live in the shared file system.
	Dir string
	// Home optionally pins the kernel jobs are homed on (default: the
	// first live workstation).
	Home *core.Kernel
}

// DefaultSupervisorParams returns a failover configuration matched to the
// default monitor cadence.
func DefaultSupervisorParams() SupervisorParams {
	return SupervisorParams{
		MaxRestarts:     3,
		CheckpointEvery: 50 * time.Millisecond,
		Dir:             "/ckpt",
	}
}

// JobFunc is the body of a supervised job. It must be restartable: consult
// jc.Resumed() for the progress recorded in the checkpoint it was restored
// from (zero on a fresh start) and call jc.Checkpoint at convenient
// boundaries.
type JobFunc func(ctx *core.Ctx, jc *JobCtx) error

// job is the supervisor's record of one submitted workload.
type job struct {
	name string
	cfg  core.ProcConfig
	fn   JobFunc
	// base is the image path prefix; saves alternate between two slot files
	// (Save truncates at open, so a crash mid-save destroys the file being
	// written — double-buffering keeps the previous image intact).
	base string
	// slot is the slot the next save writes to; goodPath is the last image
	// known fully written (empty if none yet). Both live in the supervisor,
	// not the job process — the shadow-side bookkeeping Condor keeps.
	slot     int
	goodPath string
	restarts int
	// resumed is the header of the checkpoint the current incarnation was
	// restored from (zero for the first, or when no image was readable).
	resumed  checkpoint.Header
	lastCkpt time.Duration
	proc     *core.Process
	done     *sim.Future
	lost     bool
	// incarnation counts every launch (fresh, restart, or evacuation) for
	// unique process naming and the restore-from-checkpoint decision.
	incarnation int
	// evacuating marks a deliberate kill issued by Evacuate: the watcher
	// relaunches from checkpoint immediately instead of treating the death
	// as a program failure or waiting for a down declaration.
	evacuating bool
	evacFrom   rpc.HostID
}

// Handle is the caller's view of a submitted job.
type Handle struct {
	j *job
}

// Name returns the job's name.
func (h *Handle) Name() string { return h.j.name }

// Done returns a future resolving to the job's final exit status; it
// resolves with ErrJobLost if the supervisor gave up.
func (h *Handle) Done() *sim.Future { return h.j.done }

// Restarts returns how many times the job has been restarted so far.
func (h *Handle) Restarts() int { return h.j.restarts }

// PID returns the current incarnation's process id (NilPID before the
// first launch or after the job is lost).
func (h *Handle) PID() core.PID {
	if h.j.proc == nil || h.j.lost {
		return core.NilPID
	}
	return h.j.proc.PID()
}

// Resumed returns the checkpoint header the current incarnation restored
// from (zero if it started fresh).
func (h *Handle) Resumed() checkpoint.Header { return h.j.resumed }

// JobCtx is the restart-aware half of a supervised job's interface.
type JobCtx struct {
	s *Supervisor
	j *job
}

// Resumed returns the checkpoint header this incarnation restored from.
// CPUUsedNanos in it is cumulative across incarnations; a compute loop
// resumes from there.
func (jc *JobCtx) Resumed() checkpoint.Header { return jc.j.resumed }

// Checkpoint saves the job's image if at least CheckpointEvery has passed
// since the last save (a call inside the gap is a free no-op, so programs
// offer checkpoints at every convenient boundary). The image records
// cumulative progress: the restored base plus this incarnation's compute
// time. Saves alternate between two slot files so a crash in the middle of
// one never costs the previous good image.
func (jc *JobCtx) Checkpoint(ctx *core.Ctx) error {
	j, s := jc.j, jc.s
	now := ctx.Now()
	if j.lastCkpt > 0 && now-j.lastCkpt < s.p.CheckpointEvery {
		return nil
	}
	path := fmt.Sprintf("%s.%d.ckpt", j.base, j.slot)
	if _, err := checkpoint.SaveFrom(ctx, path, time.Duration(j.resumed.CPUUsedNanos)); err != nil {
		s.ckptFailures.Inc()
		return err
	}
	j.goodPath = path
	j.slot = 1 - j.slot
	j.lastCkpt = now
	s.ckpts.Inc()
	return nil
}

// Supervisor runs jobs on remote hosts and, when a host crash kills one,
// restarts it elsewhere from its last checkpoint. This is the
// checkpoint/restart failover style the thesis compares migration against
// (Condor [Lit87]): the restarted process is a *new* process with a new
// pid — transparent recovery of the original is exactly what Sprite does
// not promise — but the work survives, because progress lives in the
// checkpoint image in the shared file system.
type Supervisor struct {
	c   *core.Cluster
	mon *Monitor
	p   SupervisorParams
	sel hostsel.Selector

	jobs    []*job
	stopped bool

	submitted       *metrics.Counter
	completed       *metrics.Counter
	lostC           *metrics.Counter
	restarts        *metrics.Counter
	restartFailures *metrics.Counter
	ckpts           *metrics.Counter
	ckptFailures    *metrics.Counter
	restoreFailures *metrics.Counter
	cpuRecovered    *metrics.Counter
	evacuations     *metrics.Counter
	restartLatency  *metrics.Timing
}

// NewSupervisor builds a supervisor over the cluster. The monitor is
// required: restarts are gated on its HostDown declarations, never on
// ground truth the real system would not have.
func NewSupervisor(c *core.Cluster, mon *Monitor, p SupervisorParams) *Supervisor {
	def := DefaultSupervisorParams()
	if p.MaxRestarts <= 0 {
		p.MaxRestarts = def.MaxRestarts
	}
	if p.CheckpointEvery <= 0 {
		p.CheckpointEvery = def.CheckpointEvery
	}
	if p.Dir == "" {
		p.Dir = def.Dir
	}
	reg := c.Metrics()
	return &Supervisor{
		c:               c,
		mon:             mon,
		p:               p,
		submitted:       reg.Counter("recovery.jobs.submitted"),
		completed:       reg.Counter("recovery.jobs.completed"),
		lostC:           reg.Counter("recovery.jobs.lost"),
		restarts:        reg.Counter("recovery.restarts"),
		restartFailures: reg.Counter("recovery.restart.failures"),
		ckpts:           reg.Counter("recovery.checkpoints"),
		ckptFailures:    reg.Counter("recovery.checkpoint.failures"),
		restoreFailures: reg.Counter("recovery.restore.failures"),
		cpuRecovered:    reg.Counter("recovery.cpu_recovered_ns"),
		evacuations:     reg.Counter("recovery.evacuations"),
		restartLatency:  reg.Timing("recovery.restart_latency"),
	}
}

// SetSelector attaches a host-selection architecture used to pick restart
// targets (default: first live workstation other than the job's home).
func (s *Supervisor) SetSelector(sel hostsel.Selector) { s.sel = sel }

// Stop makes the supervisor abandon pending restarts (watchers exit at
// their next wakeup; Done futures of unfinished jobs never resolve).
func (s *Supervisor) Stop() { s.stopped = true }

// Submit launches a job: a process homed on a live workstation, migrated to
// a restart-selected target, supervised until it exits cleanly or the
// restart budget runs out.
func (s *Supervisor) Submit(env *sim.Env, name string, cfg core.ProcConfig, fn JobFunc) (*Handle, error) {
	j := &job{
		name: name,
		cfg:  cfg,
		fn:   fn,
		base: s.p.Dir + "/" + name,
		done: sim.NewFuture(),
	}
	home := s.pickHome(rpc.NoHost)
	if home == nil {
		return nil, fmt.Errorf("recovery: submit %s: no live workstation", name)
	}
	s.jobs = append(s.jobs, j)
	s.submitted.Inc()
	if err := s.launch(env, j, home, s.pickTarget(env, home, rpc.NoHost)); err != nil {
		return nil, err
	}
	return &Handle{j: j}, nil
}

// Wait blocks until every submitted job has resolved (completed or lost).
func (s *Supervisor) Wait(env *sim.Env) error {
	for _, j := range s.jobs {
		if _, err := j.done.Wait(env); err != nil && !errors.Is(err, ErrJobLost) {
			return err
		}
	}
	return nil
}

// Lost returns the names of jobs the supervisor gave up on.
func (s *Supervisor) Lost() []string {
	var out []string
	for _, j := range s.jobs {
		if j.lost {
			out = append(out, j.name)
		}
	}
	return out
}

// Supervised reports whether pid is the live incarnation of a supervised
// job — i.e. killing it would trigger an evacuation relaunch rather than
// lose work. The fleet drain path uses it to choose checkpoint/restart as
// the fallback for residents no host accepts.
func (s *Supervisor) Supervised(pid core.PID) bool {
	for _, j := range s.jobs {
		if j.proc != nil && !j.lost && j.proc.PID() == pid && j.proc.State() != core.StateExited {
			return true
		}
	}
	return false
}

// Evacuate deliberately relocates every supervised job executing on — or
// homed on — host: each incarnation is killed and relaunched from its last
// checkpoint elsewhere, without waiting for a down declaration — the host
// is alive, it is being drained. Jobs merely homed on the host move too,
// because a relaunch is a new process with a new home: live migration
// would keep the home dependency and the coming remediation reboot would
// orphan them (Sprite's home-dependency semantics). The fleet plane's
// drain path calls it for residents no target will accept as a live
// migration. Returns how many jobs were told to move.
func (s *Supervisor) Evacuate(env *sim.Env, host rpc.HostID) (int, error) {
	n := 0
	for _, j := range s.jobs {
		p := j.proc
		if p == nil || j.lost || j.evacuating || p.State() == core.StateExited {
			continue
		}
		resident := p.Current() != nil && p.Current().Host() == host
		homed := p.Home() != nil && p.Home().Host() == host
		if !resident && !homed {
			continue
		}
		via := s.pickHome(host)
		if via == nil {
			return n, fmt.Errorf("recovery: evacuate %v: no live workstation", host)
		}
		j.evacuating = true
		j.evacFrom = host
		if err := s.c.Kill(env, via, p.PID()); err != nil {
			j.evacuating = false
			return n, fmt.Errorf("recovery: evacuate %s: %w", j.name, err)
		}
		s.evacuations.Inc()
		n++
	}
	return n, nil
}

// pickHome chooses the kernel a (re)started job is homed on: the pinned
// Home if it is up, else the first live workstation, skipping avoid.
func (s *Supervisor) pickHome(avoid rpc.HostID) *core.Kernel {
	if k := s.p.Home; k != nil && k.Host() != avoid && !s.c.HostDown(k.Host()) {
		return k
	}
	for _, k := range s.c.Workstations() {
		if k.Host() != avoid && !s.c.HostDown(k.Host()) {
			return k
		}
	}
	return nil
}

// pickTarget chooses the host the job runs on: the selector's choice if one
// is attached and usable, else the first live workstation that is neither
// the home nor the just-crashed host, else the home itself.
func (s *Supervisor) pickTarget(env *sim.Env, home *core.Kernel, avoid rpc.HostID) rpc.HostID {
	if s.sel != nil {
		if hosts, err := s.sel.RequestHosts(env, home.Host(), 1); err == nil && len(hosts) > 0 {
			h := hosts[0]
			if h != avoid && !s.c.HostDown(h) && s.c.KernelOn(h) != nil {
				return h
			}
			_ = s.sel.Release(env, home.Host(), hosts)
		}
	}
	for _, k := range s.c.Workstations() {
		h := k.Host()
		if h != home.Host() && h != avoid && !s.c.HostDown(h) {
			return h
		}
	}
	return home.Host()
}

// launch starts one incarnation of the job and spawns its watcher.
func (s *Supervisor) launch(env *sim.Env, j *job, home *core.Kernel, target rpc.HostID) error {
	restarted := j.incarnation > 0
	j.incarnation++
	j.lastCkpt = 0
	prog := func(ctx *core.Ctx) error {
		// Run remotely when a distinct target exists; a failed migration
		// (the target died between selection and arrival) degrades to
		// running at home rather than failing the job.
		if target != home.Host() {
			_ = ctx.Migrate(target)
		}
		if restarted {
			j.resumed = checkpoint.Header{}
			if j.goodPath == "" {
				// Died before the first complete checkpoint: start over.
			} else if h, err := checkpoint.Restore(ctx, j.goodPath); err == nil {
				j.resumed = h
				s.cpuRecovered.Add(h.CPUUsedNanos)
			} else {
				// The image exists but is unreadable right now (its file
				// server is down, typically): start the work over.
				s.restoreFailures.Inc()
			}
		}
		return j.fn(ctx, &JobCtx{s: s, j: j})
	}
	p, err := home.StartProcess(env, fmt.Sprintf("%s#%d", j.name, j.incarnation-1), prog, j.cfg)
	if err != nil {
		return fmt.Errorf("recovery: launch %s: %w", j.name, err)
	}
	j.proc = p
	env.Spawn(fmt.Sprintf("recovery-watch-%s#%d", j.name, j.incarnation-1), func(wenv *sim.Env) error {
		return s.watch(wenv, j)
	})
	return nil
}

// watch joins one incarnation and decides its fate: clean exit resolves the
// job; a host-crash death waits for the monitor to declare the crash, then
// restarts from the last checkpoint; anything else is a real failure.
func (s *Supervisor) watch(env *sim.Env, j *job) error {
	p := j.proc
	v, err := p.Exited().Wait(env)
	if err != nil {
		return nil // the simulation is unwinding
	}
	status, _ := v.(int)
	if status == 0 {
		s.completed.Inc()
		j.done.Complete(env, 0, nil)
		return nil
	}
	if j.evacuating {
		// A deliberate drain kill, not a failure: relaunch from the last
		// checkpoint right away. The host is alive, so there is no down
		// declaration to wait for and no restart budget to charge.
		j.evacuating = false
		from := j.evacFrom
		home := s.pickHome(from)
		if home == nil {
			s.giveUp(env, j, status)
			return nil
		}
		return s.launch(env, j, home, s.pickTarget(env, home, from))
	}
	crashHost, epoch, isCrash := s.crashSite(p, status)
	if !isCrash {
		s.giveUp(env, j, status)
		return nil
	}
	if j.restarts >= s.p.MaxRestarts {
		s.giveUp(env, j, status)
		return nil
	}
	// Act on detection, not ground truth: the restart may begin only once
	// the monitor has declared the incarnation dead (which also means the
	// reaping pass has run, so the job's old state is fully settled).
	for s.mon.DeclaredDown(crashHost) < epoch {
		if s.stopped {
			return nil
		}
		if err := env.Sleep(s.mon.Params().Interval); err != nil {
			return nil
		}
	}
	// The recovery.restart failpoint lets the fault plane delay or starve
	// failover just like any migration step.
	for {
		ferr := s.c.FailAt(env, core.FailRecoveryRestart, p.PID())
		if ferr == nil {
			break
		}
		s.restartFailures.Inc()
		if s.stopped {
			return nil
		}
		if err := env.Sleep(s.mon.Params().Interval); err != nil {
			return nil
		}
	}
	j.restarts++
	s.restarts.Inc()
	if at, ok := s.c.DownSince(crashHost); ok {
		s.restartLatency.Observe(env.Now() - at)
	}
	home := s.pickHome(crashHost)
	if home == nil {
		s.giveUp(env, j, status)
		return nil
	}
	return s.launch(env, j, home, s.pickTarget(env, home, crashHost))
}

// crashSite decides whether an abnormal exit was a host crash and, if so,
// which host's which boot incarnation to blame.
//
//   - CrashStatus means the process died *on* a crashing host: blame where
//     it ran.
//   - A kill (status < 0) of a process whose home is down, or whose home
//     rebooted out from under it, is the reaping pass destroying an orphan:
//     blame the home's dead incarnation.
//   - Any other failure is the program's own.
func (s *Supervisor) crashSite(p *core.Process, status int) (rpc.HostID, rpc.Epoch, bool) {
	if status == core.CrashStatus {
		return p.Current().Host(), p.CrashEpoch(), true
	}
	if status < 0 {
		homeHost := p.Home().Host()
		if s.c.HostDown(homeHost) || s.c.HostEpoch(homeHost) > p.HomeEpoch() {
			return homeHost, p.HomeEpoch(), true
		}
	}
	return rpc.NoHost, 0, false
}

func (s *Supervisor) giveUp(env *sim.Env, j *job, status int) {
	j.lost = true
	s.lostC.Inc()
	j.done.Complete(env, status, fmt.Errorf("%w: %s after %d restarts (status %d)", ErrJobLost, j.name, j.restarts, status))
}

// ComputeJob returns the canonical restartable workload: total compute
// time, performed in step-sized slices with a checkpoint offered after
// each. On restart it resumes from the cumulative progress in the restored
// image, so the cluster never recomputes checkpointed work.
func ComputeJob(total, step time.Duration) JobFunc {
	return func(ctx *core.Ctx, jc *JobCtx) error {
		done := time.Duration(jc.Resumed().CPUUsedNanos)
		for done < total {
			d := step
			if total-done < d {
				d = total - done
			}
			if err := ctx.Compute(d); err != nil {
				return err
			}
			done += d
			// Checkpoint failures (e.g. the image's file server is down) are
			// survivable: the job keeps computing and the next restart just
			// resumes from an older image.
			_ = jc.Checkpoint(ctx)
		}
		return nil
	}
}
