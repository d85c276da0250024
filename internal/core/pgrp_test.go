package core

import (
	"errors"
	"testing"
	"time"

	"sprite/internal/sim"
)

func TestPgrpInheritedAcrossForkAndMigration(t *testing.T) {
	eachShape(t, func(t *testing.T, confined bool) {
		c := newShapedCluster(t, 2, confined)
		src, dst := c.Workstation(0), c.Workstation(1)
		c.Boot("boot", func(env *sim.Env) error {
			p, err := src.StartProcess(env, "leader", func(ctx *Ctx) error {
				lg, err := ctx.GetPgrp()
				if err != nil {
					return err
				}
				if lg != ctx.Process().PID() {
					t.Errorf("leader pgrp = %v, want own pid", lg)
				}
				child, err := ctx.Fork("member", func(cc *Ctx) error {
					if err := cc.Migrate(dst.Host()); err != nil {
						return err
					}
					cg, err := cc.GetPgrp()
					if err != nil {
						return err
					}
					if cg != lg {
						t.Errorf("migrated child pgrp = %v, want %v", cg, lg)
					}
					return nil
				}, smallProc)
				if err != nil {
					return err
				}
				_ = child
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
	})
}

func TestSignalGroupReachesMigratedMembers(t *testing.T) {
	eachShape(t, func(t *testing.T, confined bool) {
		c := newShapedCluster(t, 3, confined)
		src, d1, d2 := c.Workstation(0), c.Workstation(1), c.Workstation(2)
		c.Boot("boot", func(env *sim.Env) error {
			p, err := src.StartProcess(env, "leader", func(ctx *Ctx) error {
				for _, target := range []*Kernel{d1, d2} {
					dest := target
					if _, err := ctx.Fork("member", func(cc *Ctx) error {
						if err := cc.Migrate(dest.Host()); err != nil {
							return err
						}
						return cc.Compute(time.Hour)
					}, smallProc); err != nil {
						return err
					}
				}
				// Give the members time to migrate and settle.
				if err := ctx.Nap(5 * time.Second); err != nil {
					return err
				}
				pg, err := ctx.GetPgrp()
				if err != nil {
					return err
				}
				if err := ctx.SignalGroup(pg, SigTerm); err != nil {
					return err
				}
				// The leader is in the group too: its own SIGTERM is pending
				// and delivers at the next migration point (this compute).
				return ctx.Compute(time.Hour)
			}, smallProc)
			if err != nil {
				return err
			}
			// The leader has no SIGTERM handler, so the group broadcast kills
			// it too once it reaches a delivery point.
			st, err := p.Exited().Wait(env)
			if err != nil {
				return err
			}
			if st != -1 {
				t.Errorf("leader status = %v, want killed by its own broadcast", st)
			}
			return nil
		})
		if err := c.Run(2 * time.Hour); err != nil {
			t.Fatal(err)
		}
		if n := c.Sim().LiveActivities(); n != 0 {
			t.Fatalf("group members survived the broadcast (%d live)", n)
		}
	})
}

func TestSetPgrpIsolates(t *testing.T) {
	eachShape(t, func(t *testing.T, confined bool) {
		c := newShapedCluster(t, 1, confined)
		k := c.Workstation(0)
		c.Boot("boot", func(env *sim.Env) error {
			p, err := k.StartProcess(env, "parent", func(ctx *Ctx) error {
				loner, err := ctx.Fork("loner", func(cc *Ctx) error {
					if err := cc.SetPgrp(); err != nil { // leaves the group
						return err
					}
					return cc.Compute(3 * time.Second)
				}, smallProc)
				if err != nil {
					return err
				}
				if err := ctx.Nap(time.Second); err != nil {
					return err
				}
				// Signal the loner's OLD group (the parent's): loner must
				// survive; deliver SIGUSR1 which the parent ignores by handler.
				if err := ctx.SigVec(SigUser1, func(cc *Ctx, sig Signal) error { return nil }); err != nil {
					return err
				}
				pg, err := ctx.GetPgrp()
				if err != nil {
					return err
				}
				if err := ctx.SignalGroup(pg, SigUser1); err != nil {
					return err
				}
				pid, st, err := ctx.Wait()
				if err != nil {
					return err
				}
				if pid != loner.PID() || st != 0 {
					t.Errorf("loner exited %v status %d, want clean exit", pid, st)
				}
				return nil
			}, smallProc)
			if err != nil {
				return err
			}
			_, err = p.Exited().Wait(env)
			return err
		})
		runCluster(t, c)
	})
}

func TestSignalGroupUnknownGroup(t *testing.T) {
	eachShape(t, func(t *testing.T, confined bool) {
		c := newShapedCluster(t, 1, confined)
		var gotErr error
		c.Boot("boot", func(env *sim.Env) error {
			p, err := c.Workstation(0).StartProcess(env, "p", func(ctx *Ctx) error {
				gotErr = ctx.SignalGroup(PID{Home: c.Workstation(0).Host(), Seq: 999}, SigTerm)
				return nil
			}, smallProc)
			if err != nil {
				return err
			}
			_, err = p.Exited().Wait(env)
			return err
		})
		runCluster(t, c)
		if !errors.Is(gotErr, ErrNoSuchProcess) {
			t.Fatalf("err = %v, want ErrNoSuchProcess", gotErr)
		}
	})
}
