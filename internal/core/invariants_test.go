package core

import (
	"strings"
	"testing"
	"time"

	"sprite/internal/fs"
	"sprite/internal/sim"
)

// TestInvariantCheckerCatchesInjectedRefLeak is the mutation test for the
// cluster invariant checker: deliberately unbalance a stream's reference
// counts the way a buggy migration path would — the client-side reference
// vanishes while the server still counts the open — and require the
// checker to flag it, both at a mid-run quiesce point and at end of run.
func TestInvariantCheckerCatchesInjectedRefLeak(t *testing.T) {
	c := newCluster(t, 1)
	ws := c.Workstation(0)
	var midRun []string
	c.Boot("boot", func(env *sim.Env) error {
		p, err := ws.StartProcess(env, "leaker", func(ctx *Ctx) error {
			fd, err := ctx.Open("/data/leak", fs.ReadWriteMode, fs.OpenOptions{Create: true})
			if err != nil {
				return err
			}
			// Mutation: scrub this host's reference from the stream without
			// telling the server, exactly the imbalance a lost migrateStream
			// or a missed close would leave behind.
			sts := ctx.Process().openStreams(nil)
			sts[len(sts)-1].ScrubHost(ws.Host())
			midRun = c.CheckInvariants(false)
			// The leaked stream is unusable now; drop the fd regardless.
			_ = ctx.Close(fd)
			return nil
		}, smallProc)
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if len(midRun) == 0 {
		t.Fatal("injected refcount leak not caught at quiesce point")
	}
	found := false
	for _, v := range midRun {
		if strings.Contains(v, "refs:") {
			found = true
		}
	}
	if !found {
		t.Errorf("quiesce violations %v lack a refs imbalance", midRun)
	}
	// The stranded server-side open must still be visible at end of run.
	end := c.CheckInvariants(true)
	if len(end) == 0 {
		t.Fatal("stranded server open not caught at end of run")
	}
}

// TestInvariantsCleanOnHealthyRun is the control for the mutation test: the
// same workload without the injected leak reports nothing.
func TestInvariantsCleanOnHealthyRun(t *testing.T) {
	c := newCluster(t, 1)
	ws := c.Workstation(0)
	var midRun []string
	c.Boot("boot", func(env *sim.Env) error {
		p, err := ws.StartProcess(env, "clean", func(ctx *Ctx) error {
			fd, err := ctx.Open("/data/clean", fs.ReadWriteMode, fs.OpenOptions{Create: true})
			if err != nil {
				return err
			}
			if _, err := ctx.Write(fd, make([]byte, 1024)); err != nil {
				return err
			}
			midRun = c.CheckInvariants(false)
			return ctx.Close(fd)
		}, smallProc)
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if len(midRun) != 0 {
		t.Errorf("healthy quiesce point reported %v", midRun)
	}
	if v := c.CheckInvariants(true); len(v) != 0 {
		t.Errorf("healthy end of run reported %v", v)
	}
}

// TestSharedStreamFollowedToSameHost: a parent opens a file and forks, the
// child migrates to B, then the parent follows it there. Both references of
// the one shared stream now sit on B, which the server must hold as one
// (stream, host) entry — not one per move — so the ledger matches mid-run
// and nothing is left once both close.
func TestSharedStreamFollowedToSameHost(t *testing.T) {
	eachShape(t, func(t *testing.T, confined bool) {
		c := newShapedCluster(t, 2, confined)
		a, b := c.Workstation(0), c.Workstation(1)
		var midRun []string
		c.Boot("boot", func(env *sim.Env) error {
			p, err := a.StartProcess(env, "parent", func(ctx *Ctx) error {
				fd, err := ctx.Open("/data/shared", fs.WriteMode, fs.OpenOptions{Create: true})
				if err != nil {
					return err
				}
				if _, err := ctx.Fork("child", func(cc *Ctx) error {
					if err := cc.Migrate(b.Host()); err != nil {
						return err
					}
					if err := cc.Compute(2 * time.Second); err != nil {
						return err
					}
					return cc.Close(fd)
				}, smallProc); err != nil {
					return err
				}
				if err := ctx.Compute(500 * time.Millisecond); err != nil {
					return err
				}
				if err := ctx.Migrate(b.Host()); err != nil {
					return err
				}
				midRun = c.CheckInvariants(false)
				if err := ctx.Close(fd); err != nil {
					return err
				}
				_, _, err = ctx.Wait()
				return err
			}, smallProc)
			if err != nil {
				return err
			}
			_, err = p.Exited().Wait(env)
			return err
		})
		runCluster(t, c)
		if len(midRun) != 0 {
			t.Errorf("after both moved to %v: %v", b.Host(), midRun)
		}
		if v := c.CheckInvariants(true); len(v) != 0 {
			t.Errorf("end of run: %v", v)
		}
	})
}
