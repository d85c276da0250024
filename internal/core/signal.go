package core

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// Signal is a 4.3BSD-style signal. Signal *state* (handlers, pending set)
// is transferred with the PCB at migration; signal *routing* goes through
// the target's home machine, which always knows where the process runs —
// the combination that keeps kill(1) working on migrated processes.
type Signal int

// Signals modeled by the simulator.
const (
	// SigTerm requests termination; a handler may catch it.
	SigTerm Signal = iota + 1
	// SigKill terminates unconditionally.
	SigKill
	// SigStop suspends the process until SigCont.
	SigStop
	// SigCont resumes a stopped process.
	SigCont
	// SigUser1 and SigUser2 are application-defined.
	SigUser1
	SigUser2
)

func (s Signal) String() string {
	switch s {
	case SigTerm:
		return "SIGTERM"
	case SigKill:
		return "SIGKILL"
	case SigStop:
		return "SIGSTOP"
	case SigCont:
		return "SIGCONT"
	case SigUser1:
		return "SIGUSR1"
	case SigUser2:
		return "SIGUSR2"
	default:
		return fmt.Sprintf("SIG(%d)", int(s))
	}
}

// SignalHandler is a user signal handler; it runs in the process's own
// activity at the next migration point after delivery.
type SignalHandler func(ctx *Ctx, sig Signal) error

// SigVec installs a handler for sig (nil restores the default action).
// Handler state is part of the PCB: it survives migration (Appendix A
// classifies sigvec as transferred state).
func (c *Ctx) SigVec(sig Signal, handler SignalHandler) error {
	if err := c.enter("sigvec"); err != nil {
		return err
	}
	p := c.proc
	if p.handlers == nil {
		p.handlers = make(map[Signal]SignalHandler)
	}
	if handler == nil {
		delete(p.handlers, sig)
		return nil
	}
	p.handlers[sig] = handler
	return nil
}

// SendSignal delivers sig to another process, routed through its home
// machine like kill (Appendix A: forwarded home).
func (c *Ctx) SendSignal(target PID, sig Signal) error {
	if err := c.enterHome("kill"); err != nil {
		return err
	}
	return c.proc.cur.cluster.signalPID(c.env, c.proc.cur, target, sig)
}

// signalPID routes a signal via the target's home kernel.
func (c *Cluster) signalPID(env *sim.Env, via *Kernel, target PID, sig Signal) error {
	homeK := c.kernels[target.Home]
	if homeK == nil {
		return fmt.Errorf("%w: %v", ErrNoSuchProcess, target)
	}
	_, err := kKill.Call(via.ep, env, homeK.host, killArgs{PID: target, Sig: sig}, 32)
	return err
}

// post records a signal against the process and wakes it if it is stopped
// (so SIGCONT and SIGKILL can get through).
func (p *Process) post(env *sim.Env, sig Signal) {
	switch sig {
	case SigKill:
		p.killed = true
		if p.waiting {
			// A kill ends a blocked Wait here, where the process runs; a
			// home half still pending ends with the exit (recordExit).
			p.ctx.env.Interrupt(ErrKilled)
		}
	case SigCont:
		p.pending = append(p.pending, sig)
		if p.contWaiter != nil {
			w := p.contWaiter
			p.contWaiter = nil
			w.Complete(env, nil, nil)
		}
		return
	default:
		p.pending = append(p.pending, sig)
	}
	if p.contWaiter != nil {
		w := p.contWaiter
		p.contWaiter = nil
		w.Complete(env, nil, nil)
	}
}

// deliverPending runs at migration points: handle every queued signal in
// arrival order.
func (c *Ctx) deliverPending() error {
	p := c.proc
	for len(p.pending) > 0 {
		sig := p.pending[0]
		p.pending = p.pending[1:]
		switch sig {
		case SigCont:
			// Already running: nothing to do.
		case SigStop:
			if err := c.waitForCont(); err != nil {
				return err
			}
		case SigTerm, SigUser1, SigUser2:
			if h := p.handlers[sig]; h != nil {
				if err := h(c, sig); err != nil {
					return err
				}
			} else if sig == SigTerm {
				p.killed = true
				return ErrKilled
			}
		}
		if p.killed {
			return ErrKilled
		}
	}
	if p.killed {
		return ErrKilled
	}
	return nil
}

// waitForCont parks the process until SIGCONT (or SIGKILL) arrives.
func (c *Ctx) waitForCont() error {
	p := c.proc
	for {
		if p.killed {
			return ErrKilled
		}
		// A continue may already be queued.
		for i, s := range p.pending {
			if s == SigCont {
				p.pending = append(p.pending[:i], p.pending[i+1:]...)
				return nil
			}
		}
		p.contWaiter = sim.NewFuture()
		if _, err := p.contWaiter.Wait(c.env); err != nil {
			return err
		}
	}
}

// Stopped reports whether the process is currently suspended by SIGSTOP.
func (p *Process) Stopped() bool { return p.contWaiter != nil }

// GetPgrp returns the caller's process group (forwarded home: group
// membership is family state kept at the home machine).
func (c *Ctx) GetPgrp() (PID, error) {
	if err := c.enter("getpgrp"); err != nil {
		return NilPID, err
	}
	r, err := c.homeCall(forwardArgs{PID: c.proc.pid, Call: "getpgrp"})
	return r.PID, err
}

// SetPgrp makes the caller the leader of a new process group.
func (c *Ctx) SetPgrp() error { return c.enterHome("setpgrp") }

// SignalGroup delivers sig to every member of a process group. The group's
// home machine enumerates the members (they all share it, since children
// inherit their parent's home) and routes to each member's location.
func (c *Ctx) SignalGroup(pgrp PID, sig Signal) error {
	if err := c.enterHome("kill"); err != nil {
		return err
	}
	homeK := c.proc.cur.cluster.kernels[pgrp.Home]
	if homeK == nil {
		return fmt.Errorf("%w: group %v", ErrNoSuchProcess, pgrp)
	}
	// One RPC to the home machine carries the group signal...
	_, err := kKillpg.Call(c.proc.cur.ep, c.env, homeK.host, killArgs{PID: pgrp, Sig: sig}, 32)
	return err
}

// handleKillpg delivers a signal to every member of a local group.
func (k *Kernel) handleKillpg(env *sim.Env, from rpc.HostID, a killArgs) (int, int, error) {
	sig := normalizeSig(a.Sig)
	delivered := 0
	for _, rec := range k.homeRecords() {
		if rec.pgrp != a.PID {
			continue
		}
		delivered++
		if rec.location == k.host {
			rec.proc.post(env, sig)
			continue
		}
		// ...and one onward RPC per remote member.
		if _, err := kKillLocal.Call(k.ep, env, rec.location, killArgs{PID: rec.pid, Sig: sig}, 16); err != nil {
			return 0, 0, err
		}
	}
	if delivered == 0 {
		return 0, 0, fmt.Errorf("%w: group %v", ErrNoSuchProcess, a.PID)
	}
	return delivered, 8, nil
}

// homeRecords snapshots the home-record list (delivery may mutate the map).
func (k *Kernel) homeRecords() []*homeRecord {
	return slices.SortedFunc(maps.Values(k.homeRecs), func(a, b *homeRecord) int { return a.pid.Compare(b.pid) })
}

// Rusage is the resource-usage record returned by GetRusage.
type Rusage struct {
	// CPUTime is accumulated compute (and kernel-call) time.
	CPUTime time.Duration
	// PageFaults counts VM faults taken.
	PageFaults uint64
	// Migrations counts completed migrations.
	Migrations int
}

// GetRusage returns the caller's resource usage. Like other
// process-attribute calls it is forwarded home so that accounting is
// consistent for the whole family.
func (c *Ctx) GetRusage() (Rusage, error) {
	if err := c.enterHome("getrusage"); err != nil {
		return Rusage{}, err
	}
	p := c.proc
	r := Rusage{CPUTime: p.cpuUsed, Migrations: p.migrations}
	if p.space != nil {
		r.PageFaults = p.space.Stats().Faults
	}
	return r, nil
}

// Chdir changes the working directory — PCB state that migrates with the
// process (the FS resolves relative paths against it wherever the process
// runs).
func (c *Ctx) Chdir(dir string) error {
	if err := c.enter("chdir"); err != nil {
		return err
	}
	// Resolving the directory is a name lookup at its server.
	if _, _, err := c.proc.cur.fsc.Stat(c.env, dir); err != nil {
		return fmt.Errorf("chdir %s: %w", dir, err)
	}
	c.proc.cwd = dir
	return nil
}

// Getwd returns the working directory.
func (c *Ctx) Getwd() (string, error) {
	if err := c.enter("getwd"); err != nil {
		return "", err
	}
	if c.proc.cwd == "" {
		return "/", nil
	}
	return c.proc.cwd, nil
}

// resolvePath makes relative paths absolute against the process's cwd.
func (p *Process) resolvePath(path string) string {
	if len(path) > 0 && path[0] == '/' {
		return path
	}
	cwd := p.cwd
	if cwd == "" || cwd == "/" {
		return "/" + path
	}
	return cwd + "/" + path
}

// Nap blocks the process for d of virtual time (the sleep system call).
// Like any kernel call it is a migration and signal-delivery point.
func (c *Ctx) Nap(d time.Duration) error {
	if err := c.enter("sleep"); err != nil {
		return err
	}
	return c.env.Sleep(d)
}
