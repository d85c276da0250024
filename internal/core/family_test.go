package core

import (
	"errors"
	"testing"
	"time"

	"sprite/internal/fs"
	"sprite/internal/sim"
)

// TestKilledWaiterEndsItsWait: a migrated parent killed while blocked in
// Wait unwinds at once with ErrKilled, long before its child exits. On a
// confined cluster the wait's home half still blocks in a handler at the
// home kernel when the parent exits; recordExit ends it, so the run
// quiesces instead of deadlocking on that handler.
func TestKilledWaiterEndsItsWait(t *testing.T) {
	eachShape(t, func(t *testing.T, confined bool) {
		c := newShapedCluster(t, 3, confined)
		home, away, killer := c.Workstation(0), c.Workstation(1), c.Workstation(2)
		var waitErr error
		var parentEnd time.Duration
		c.Boot("boot", func(env *sim.Env) error {
			p, err := home.StartProcess(env, "parent", func(ctx *Ctx) error {
				if err := ctx.Migrate(away.Host()); err != nil {
					return err
				}
				if _, err := ctx.Fork("kid", func(cc *Ctx) error {
					return cc.Compute(time.Minute)
				}, smallProc); err != nil {
					return err
				}
				_, _, waitErr = ctx.Wait()
				return waitErr
			}, smallProc)
			if err != nil {
				return err
			}
			if err := env.Sleep(time.Second); err != nil {
				return err
			}
			if err := c.Kill(env, killer, p.PID()); err != nil {
				return err
			}
			st, err := p.Exited().Wait(env)
			parentEnd = env.Now()
			if st != -1 {
				t.Errorf("parent exit status = %v, want -1 (killed)", st)
			}
			return err
		})
		runCluster(t, c)
		if !errors.Is(waitErr, ErrKilled) {
			t.Errorf("Wait returned %v, want ErrKilled", waitErr)
		}
		if parentEnd >= time.Minute {
			t.Errorf("parent exited at %v, not when killed", parentEnd)
		}
		if v := c.CheckInvariants(true); len(v) != 0 {
			t.Errorf("end of run: %v", v)
		}
	})
}

// TestForwardedCallsFollowTable runs each modeled Ctx call from a migrated
// process: its kernel's ForwardedCalls must rise by one exactly when
// SyscallTable classifies the call PolicyHome, and every call must be in
// the table.
func TestForwardedCallsFollowTable(t *testing.T) {
	eachShape(t, func(t *testing.T, confined bool) {
		c := newShapedCluster(t, 2, confined)
		if err := c.Seed("/data", nil); err != nil { // the directory itself
			t.Fatal(err)
		}
		src, dst := c.Workstation(0), c.Workstation(1)
		checked := 0
		c.Boot("boot", func(env *sim.Env) error {
			p, err := src.StartProcess(env, "caller", func(ctx *Ctx) error {
				if err := ctx.Migrate(dst.Host()); err != nil {
					return err
				}
				// call runs one kernel call named name and checks its forwards.
				call := func(name string, fn func() error) error {
					policy, ok := SyscallTable[name]
					if !ok {
						t.Errorf("%s: not in SyscallTable", name)
					}
					before := dst.Stats().ForwardedCalls
					if err := fn(); err != nil {
						return err
					}
					want := uint64(0)
					if policy == PolicyHome {
						want = 1
					}
					if got := dst.Stats().ForwardedCalls - before; got != want {
						t.Errorf("%s (%v): %d forwarded calls, want %d", name, policy, got, want)
					}
					checked++
					return nil
				}
				var fd, fd2, rfd, wfd int
				var kid *Process
				pid := ctx.Process().PID()
				self := dst.Host()
				steps := []struct {
					name string
					fn   func() error
				}{
					{"getpid", func() error { _, err := ctx.GetPID(); return err }},
					{"gettimeofday", func() error { _, err := ctx.GetTimeOfDay(); return err }},
					{"gethostname", func() error { _, err := ctx.GetHostname(); return err }},
					{"getrusage", func() error { _, err := ctx.GetRusage(); return err }},
					{"brk", func() error { return ctx.TouchHeap(0, 1, true) }},
					{"brk", func() error { return ctx.TouchCode(1) }},
					{"open", func() (err error) {
						fd, err = ctx.Open("/data/t", fs.ReadWriteMode, fs.OpenOptions{Create: true})
						return err
					}},
					{"write", func() error { _, err := ctx.Write(fd, []byte("abc")); return err }},
					{"write", func() error { _, err := ctx.WriteZeros(fd, 10); return err }},
					{"lseek", func() error { return ctx.Seek(fd, 0) }},
					{"read", func() error { _, err := ctx.Read(fd, 4); return err }},
					{"read", func() error { _, err := ctx.ReadCount(fd, 4); return err }},
					{"fsync", func() error { return ctx.Fsync(fd) }},
					{"dup", func() (err error) { fd2, err = ctx.Dup(fd); return err }},
					{"close", func() error { return ctx.Close(fd2) }},
					{"close", func() error { return ctx.Close(fd) }},
					{"stat", func() error { _, err := ctx.Stat("/data/t"); return err }},
					{"stat", func() error { _, _, err := ctx.StatTimes("/data/t"); return err }},
					{"rename", func() error { return ctx.Rename("/data/t", "/data/u") }},
					{"readdir", func() error { _, err := ctx.ReadDir("/data"); return err }},
					{"unlink", func() error { return ctx.Remove("/data/u") }},
					{"pipe", func() (err error) { rfd, wfd, err = ctx.Pipe(); return err }},
					{"close", func() error { return ctx.Close(rfd) }},
					{"close", func() error { return ctx.Close(wfd) }},
					{"chdir", func() error { return ctx.Chdir("/data") }},
					{"getwd", func() error { _, err := ctx.Getwd(); return err }},
					{"sleep", func() error { return ctx.Nap(time.Millisecond) }},
					{"read", func() error { return ctx.Syscall("read") }},
					{"sigvec", func() error {
						return ctx.SigVec(SigUser1, func(*Ctx, Signal) error { return nil })
					}},
					{"getpgrp", func() error { _, err := ctx.GetPgrp(); return err }},
					{"setpgrp", func() error { return ctx.SetPgrp() }},
					{"fork", func() (err error) {
						kid, err = ctx.Fork("kid", func(cc *Ctx) error { return cc.Nap(time.Minute) }, smallProc)
						return err
					}},
					{"kill", func() error { return ctx.SendSignal(pid, SigUser1) }},
					{"kill", func() error { return ctx.SignalGroup(pid, SigUser1) }},
					{"kill", func() error { return ctx.Kill(kid.PID()) }},
					{"wait", func() error { _, _, err := ctx.Wait(); return err }},
					{"migrate", func() error { return ctx.Migrate(self) }},
				}
				for _, s := range steps {
					if err := call(s.name, s.fn); err != nil {
						return err
					}
				}
				before := dst.Stats().ForwardedCalls
				return ctx.Exec("image", func(cc *Ctx) error {
					if got := dst.Stats().ForwardedCalls - before; got != 0 || SyscallTable["exec"] == PolicyHome {
						t.Errorf("exec: %d forwarded calls, want 0", got)
					}
					checked++
					return nil
				}, smallProc)
			}, smallProc)
			if err != nil {
				return err
			}
			_, err = p.Exited().Wait(env)
			return err
		})
		runCluster(t, c)
		if checked != 38 {
			t.Errorf("checked %d calls, want 38", checked)
		}
	})
}
