package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"sprite/internal/fs"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// bigProc gives failure tests enough heap to make VM transfer interesting.
var bigProc = ProcConfig{Binary: "/bin/prog", CodePages: 4, HeapPages: 32, StackPages: 2}

// TestMigrationToDownHostAbortsCleanly: if the target is unreachable the
// migration fails before any state moves, and the process keeps running at
// the source (Charlotte-style abort-before-commit; Sprite's handshake gives
// the same property).
func TestMigrationToDownHostAbortsCleanly(t *testing.T) {
	eachShape(t, func(t *testing.T, confined bool) {
		c := newShapedCluster(t, 2, confined)
		src, dst := c.Workstation(0), c.Workstation(1)
		c.Transport().Endpoint(dst.Host()).SetDown(true)
		var merr error
		var finishedOn rpc.HostID
		c.Boot("boot", func(env *sim.Env) error {
			p, err := src.StartProcess(env, "survivor", func(ctx *Ctx) error {
				if err := ctx.TouchHeap(0, 8, true); err != nil {
					return err
				}
				merr = ctx.Migrate(dst.Host())
				// Life goes on at the source.
				if err := ctx.Compute(50 * time.Millisecond); err != nil {
					return err
				}
				finishedOn = ctx.Process().Current().Host()
				return nil
			}, smallProc)
			if err != nil {
				return err
			}
			_, err = p.Exited().Wait(env)
			return err
		})
		runCluster(t, c)
		if !errors.Is(merr, rpc.ErrHostDown) {
			t.Fatalf("migrate err = %v, want ErrHostDown", merr)
		}
		if finishedOn != src.Host() {
			t.Fatalf("finished on %v, want source %v", finishedOn, src.Host())
		}
		if src.Stats().MigrationsOut != 0 {
			t.Fatal("aborted migration was counted as completed")
		}
	})
}

// residualHarness runs: start on home, migrate home->A, migrate A->B, then
// host A fail-stops through the fault plane while the process tries to
// touch its memory on B. It returns the error the process observed on that
// touch, and checks the cluster invariants once the run settles (the crash
// scrubs A's file and process state, so nothing may leak or double-count).
func residualHarness(t *testing.T, strategy TransferStrategy) error {
	t.Helper()
	c := newCluster(t, 3)
	c.SetStrategyAll(strategy)
	home, hostA, hostB := c.Workstation(0), c.Workstation(1), c.Workstation(2)
	var touchErr error
	c.Boot("boot", func(env *sim.Env) error {
		p, err := home.StartProcess(env, "wanderer", func(ctx *Ctx) error {
			if err := ctx.TouchHeap(0, 32, true); err != nil {
				return err
			}
			if err := ctx.Migrate(hostA.Host()); err != nil {
				return err
			}
			// Re-touch on A so the pages live there (matters for COR).
			if err := ctx.TouchHeap(0, 32, true); err != nil {
				return err
			}
			if err := ctx.Migrate(hostB.Host()); err != nil {
				return err
			}
			// A fail-stops: does the process still run?
			c.CrashHost(env, hostA.Host())
			touchErr = ctx.TouchHeap(0, 32, false)
			return nil
		}, bigProc)
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if v := c.CheckInvariants(true); len(v) != 0 {
		t.Errorf("invariants violated after crash run: %v", v)
	}
	return touchErr
}

// TestResidualDependencyAcrossStrategies pits the thesis's central
// robustness claim against all four VM transfer strategies: copy-on-
// reference leaves the process dependent on its last source host for the
// rest of its life (the touch fails when that host fail-stops), while
// Sprite's backing-store flush, full copy, and pre-copy all move or flush
// the state out and survive the same crash.
func TestResidualDependencyAcrossStrategies(t *testing.T) {
	cases := []struct {
		name     string
		strategy TransferStrategy
		residual bool
	}{
		{"copy-on-reference", CopyOnReferenceStrategy{}, true},
		{"sprite-flush", SpriteFlushStrategy{}, false},
		{"full-copy", FullCopyStrategy{}, false},
		{"pre-copy", PreCopyStrategy{RedirtyPagesPerSec: 100}, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			err := residualHarness(t, tc.strategy)
			if tc.residual {
				if !errors.Is(err, rpc.ErrHostDown) {
					t.Fatalf("touch err = %v, want ErrHostDown (residual dependency)", err)
				}
			} else if err != nil {
				t.Fatalf("touch err = %v, want nil (no residual dependency)", err)
			}
		})
	}
}

// TestEvictionTargetPolicyReSelect: the eviction-destination ablation — an
// installed policy sends evicted processes to another idle host instead of
// home.
func TestEvictionTargetPolicyReSelect(t *testing.T) {
	c := newCluster(t, 3)
	home, lent, spare := c.Workstation(0), c.Workstation(1), c.Workstation(2)
	lent.SetEvictionTarget(func(env *sim.Env, p *Process) *Kernel {
		return spare
	})
	c.Boot("boot", func(env *sim.Env) error {
		p, err := home.StartProcess(env, "guest", func(ctx *Ctx) error {
			if err := ctx.Migrate(lent.Host()); err != nil {
				return err
			}
			return ctx.Compute(30 * time.Second)
		}, smallProc)
		if err != nil {
			return err
		}
		if err := env.Sleep(time.Second); err != nil {
			return err
		}
		if err := lent.EvictAll(env); err != nil {
			return err
		}
		if p.Current() != spare {
			t.Errorf("evicted to %v, want spare %v", p.Current().Host(), spare.Host())
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
}

// TestDoubleMigrationTransparency: two hops later, pid, hostname, and home
// forwarding still resolve to the home machine, and the home record tracks
// the latest location.
func TestDoubleMigrationTransparency(t *testing.T) {
	c := newCluster(t, 3)
	home, a, b := c.Workstation(0), c.Workstation(1), c.Workstation(2)
	c.Boot("boot", func(env *sim.Env) error {
		p, err := home.StartProcess(env, "hopper", func(ctx *Ctx) error {
			if err := ctx.Migrate(a.Host()); err != nil {
				return err
			}
			if err := ctx.Migrate(b.Host()); err != nil {
				return err
			}
			host, err := ctx.GetHostname()
			if err != nil {
				return err
			}
			if host != home.Host().String() {
				t.Errorf("hostname after two hops = %v, want home", host)
			}
			return ctx.Compute(time.Second)
		}, smallProc)
		if err != nil {
			return err
		}
		if err := env.Sleep(500 * time.Millisecond); err != nil {
			return err
		}
		loc, err := home.LocationOf(p.PID())
		if err != nil {
			return err
		}
		if loc != b.Host() {
			t.Errorf("home record location = %v, want %v", loc, b.Host())
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if p := c.Workstation(1).Stats(); p.MigrationsIn != 1 || p.MigrationsOut != 1 {
		t.Fatalf("intermediate host stats = %+v", p)
	}
}

// TestMigrationBackHome: migrating home again clears the foreign state and
// forwarding costs disappear.
func TestMigrationBackHome(t *testing.T) {
	c := newCluster(t, 2)
	home, away := c.Workstation(0), c.Workstation(1)
	c.Boot("boot", func(env *sim.Env) error {
		p, err := home.StartProcess(env, "returner", func(ctx *Ctx) error {
			if err := ctx.Migrate(away.Host()); err != nil {
				return err
			}
			t0 := ctx.Now()
			if _, err := ctx.GetTimeOfDay(); err != nil {
				return err
			}
			awayCost := ctx.Now() - t0
			if err := ctx.Migrate(home.Host()); err != nil {
				return err
			}
			if ctx.Process().Foreign() {
				t.Error("process still foreign after migrating home")
			}
			t0 = ctx.Now()
			if _, err := ctx.GetTimeOfDay(); err != nil {
				return err
			}
			homeCost := ctx.Now() - t0
			if homeCost >= awayCost {
				t.Errorf("home gettimeofday %v should be cheaper than away %v", homeCost, awayCost)
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
}

// TestConcurrentMigrationsDoNotInterfere: several processes migrating at
// once between disjoint host pairs all arrive intact.
func TestConcurrentMigrationsDoNotInterfere(t *testing.T) {
	c := newCluster(t, 6)
	c.Boot("boot", func(env *sim.Env) error {
		var procs []*Process
		for i := 0; i < 3; i++ {
			src, dst := c.Workstation(i), c.Workstation(3+i)
			p, err := src.StartProcess(env, "mover", func(ctx *Ctx) error {
				if err := ctx.TouchHeap(0, 16, true); err != nil {
					return err
				}
				if err := ctx.Migrate(dst.Host()); err != nil {
					return err
				}
				if ctx.Process().Current() != dst {
					t.Errorf("landed on %v, want %v", ctx.Process().Current().Host(), dst.Host())
				}
				return ctx.TouchHeap(0, 16, false)
			}, bigProc)
			if err != nil {
				return err
			}
			procs = append(procs, p)
		}
		for _, p := range procs {
			if _, err := p.Exited().Wait(env); err != nil {
				return err
			}
		}
		return nil
	})
	runCluster(t, c)
	if got := len(c.MigrationRecords()); got != 3 {
		t.Fatalf("migrations = %d, want 3", got)
	}
}

// TestMigrationAbortRollsBack injects a failure at each failpoint of the
// shared part of the migration sequence, for both kinds of migration. The
// rollback contract is the same either way — the process runs on at the
// source with its streams back, the target keeps no ghost, the abort is
// counted once and leaves no timing for the phase it cut short — and only
// the requester's view differs: a full migration's future fails with the
// injected error, an exec-time one is demoted to a local exec and resolves
// to the source host.
func TestMigrationAbortRollsBack(t *testing.T) {
	injected := errors.New("injected fault")
	points := []struct {
		point Failpoint
		phase string
	}{
		{FailMigInit, "negotiate"},
		{FailMigStreams, "streams"},
		{FailMigPCB, "pcb"},
	}
	for _, atExec := range []bool{false, true} {
		for _, tc := range points {
			atExec, tc := atExec, tc
			name := "full/" + tc.point.String()
			if atExec {
				name = "exec/" + tc.point.String()
			}
			t.Run(name, func(t *testing.T) {
				eachShape(t, func(t *testing.T, confined bool) {
					c := newShapedCluster(t, 2, confined)
					src, dst := c.Workstation(0), c.Workstation(1)
					armed := true
					c.SetFailpoint(func(env *sim.Env, fp Failpoint, pid PID) error {
						if armed && fp == tc.point {
							armed = false
							return injected
						}
						return nil
					})
					ready := sim.NewFuture()
					var fd int
					var ranOn rpc.HostID
					// after is what the process does once the migration has
					// aborted: keep using the stream that moved and came back.
					after := func(ctx *Ctx) error {
						ranOn = ctx.Process().Current().Host()
						if _, err := ctx.Write(fd, []byte("after")); err != nil {
							return err
						}
						return ctx.Close(fd)
					}
					c.Boot("boot", func(env *sim.Env) error {
						p, err := src.StartProcess(env, "unlucky", func(ctx *Ctx) error {
							var err error
							if fd, err = ctx.Open("/log", fs.WriteMode, fs.OpenOptions{Create: true}); err != nil {
								return err
							}
							if _, err := ctx.Write(fd, []byte("before ")); err != nil {
								return err
							}
							if err := ctx.TouchHeap(0, 16, true); err != nil {
								return err
							}
							ready.Complete(ctx.Env(), nil, nil)
							// A full migration fires at one of these quanta.
							if err := ctx.Compute(20 * time.Millisecond); err != nil {
								return err
							}
							if atExec {
								return ctx.Exec("image", after, smallProc)
							}
							return after(ctx)
						}, bigProc)
						if err != nil {
							return err
						}
						if _, err := ready.Wait(env); err != nil {
							return err
						}
						request := src.RequestMigration
						if atExec {
							request = src.RequestExecMigration
						}
						landed, merr := request(p, dst, "test").Wait(env)
						if atExec {
							if merr != nil || landed != src.Host() {
								t.Errorf("demoted exec resolved to (%v, %v), want (%v, nil)", landed, merr, src.Host())
							}
						} else if !errors.Is(merr, injected) {
							t.Errorf("requester saw %v, want the injected fault", merr)
						}
						// The instant the requester hears of it, the rollback is
						// already complete.
						if p.Current() != src || p.State() != StateRunning {
							t.Errorf("after abort: on %v in state %v, want running on source", p.Current().Host(), p.State())
						}
						if _, ghost := dst.procs[p.pid]; ghost {
							t.Error("target still holds the aborted process's PCB")
						}
						for _, st := range p.allStreams(nil) {
							if st.RefsOn(src.Host()) == 0 || st.RefsOn(dst.Host()) != 0 {
								t.Errorf("stream %s: refs source=%d target=%d, want all back on the source",
									st.Path, st.RefsOn(src.Host()), st.RefsOn(dst.Host()))
							}
						}
						status, err := p.Exited().Wait(env)
						if err != nil {
							return err
						}
						if status != 0 {
							t.Errorf("exit status = %v, want 0", status)
						}
						got, err := src.FSClient().ReadFile(env, "/log")
						if err != nil {
							return err
						}
						if string(got) != "before after" {
							t.Errorf("file = %q, want %q", got, "before after")
						}
						return nil
					})
					runCluster(t, c)

					if ranOn != src.Host() {
						t.Errorf("ran on %v after the abort, want source %v", ranOn, src.Host())
					}
					if s, d := src.Stats(), dst.Stats(); s.MigrationsAborted != 1 || s.MigrationsOut != 0 || s.RemoteExecs != 0 || d.MigrationsIn != 0 {
						t.Errorf("stats: source %+v, target %+v", s, d)
					}
					if n := len(c.MigrationRecords()); n != 0 {
						t.Errorf("%d migration records for an aborted migration", n)
					}
					snap := c.MetricsSnapshot()
					for name, want := range map[string]int64{
						"mig.started": 1, "mig.completed": 0, "mig.aborted": 1, "mig.aborted." + tc.phase: 1,
					} {
						if got := snap.Counters[name]; got != want {
							t.Errorf("%s = %d, want %d", name, got, want)
						}
					}
					for _, name := range []string{"mig.phase." + tc.phase, "mig.total", "mig.freeze"} {
						if ts := snap.Timings[name]; ts.N != 0 {
							t.Errorf("timing %s survived the rollback: %+v", name, ts)
						}
					}
					if v := c.CheckInvariants(true); len(v) != 0 {
						t.Errorf("invariants: %v", v)
					}
				})
			})
		}
	}
}

// abortDropper loses every k.migAbort request, or every reply, sent in the
// window that opens with the first one; other services pass untouched, so
// it keeps no state but what the migrating process's own calls write.
type abortDropper struct {
	reply   bool
	window  time.Duration
	opened  time.Duration
	dropped int
}

func (d *abortDropper) Intercept(env *sim.Env, from, to rpc.HostID, service string, attempt int) rpc.Verdict {
	if service != "k.migAbort" {
		return rpc.Verdict{}
	}
	if d.dropped == 0 {
		d.opened = env.Now()
	}
	if env.Now()-d.opened >= d.window {
		return rpc.Verdict{}
	}
	d.dropped++
	return rpc.Verdict{DropRequest: !d.reply, DropReply: d.reply}
}

// TestLostMigAbortLeavesNoGhost: the network loses the target's rollback
// call for longer than one call's retry budget after a k.migPCB-installed
// PCB was aborted, then heals. The source calls again while the target
// stays up in the same incarnation, so the target still drops the PCB and
// moves the stream back, and nothing leaks. Lost replies make the target
// run the repair and then answer a repeated call, which must change
// nothing.
func TestLostMigAbortLeavesNoGhost(t *testing.T) {
	eachShape(t, func(t *testing.T, confined bool) {
		for _, reply := range []bool{false, true} {
			name := "request"
			if reply {
				name = "reply"
			}
			t.Run(name, func(t *testing.T) { lostMigAbort(t, confined, reply) })
		}
	})
}

// lostMigAbort runs one TestLostMigAbortLeavesNoGhost case.
func lostMigAbort(t *testing.T, confined, reply bool) {
	c := newShapedCluster(t, 2, confined)
	src, dst := c.Workstation(0), c.Workstation(1)
	injected := errors.New("injected fault")
	c.SetFailpoint(func(env *sim.Env, fp Failpoint, pid PID) error {
		if fp == FailMigPCB {
			return injected
		}
		return nil
	})
	rp := c.Params().RPC
	budget := time.Duration(rp.MaxRetries+1)*rp.CallTimeout + rp.RetryBackoff<<rp.MaxRetries
	drops := &abortDropper{reply: reply, window: 2 * budget}
	c.Transport().SetInjector(drops)
	var merr error
	c.Boot("boot", func(env *sim.Env) error {
		p, err := src.StartProcess(env, "unlucky", func(ctx *Ctx) error {
			fd, err := ctx.Open("/log", fs.WriteMode, fs.OpenOptions{Create: true})
			if err != nil {
				return err
			}
			if _, err := ctx.Write(fd, []byte("before ")); err != nil {
				return err
			}
			merr = ctx.Migrate(dst.Host())
			if _, err := ctx.Write(fd, []byte("after")); err != nil {
				return err
			}
			return ctx.Close(fd)
		}, smallProc)
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if !errors.Is(merr, injected) {
		t.Fatalf("migrate err = %v, want the injected fault", merr)
	}
	if d := dst.Stats(); d.MigrationsIn != 0 || len(dst.procs) != 0 {
		t.Errorf("target keeps %d processes, MigrationsIn %d", len(dst.procs), d.MigrationsIn)
	}
	if v := c.CheckInvariants(true); len(v) != 0 {
		t.Errorf("invariants: %v", v)
	}
	if drops.dropped <= rp.MaxRetries+1 || c.Transport().Timeouts() == 0 {
		t.Errorf("%d k.migAbort messages dropped, %d calls timed out: the window never outlasted a call", drops.dropped, c.Transport().Timeouts())
	}
}

// replyDropper loses every reply of one service sent from one host: each
// such call runs its handler and then times out.
type replyDropper struct {
	service string
	from    rpc.HostID
}

func (d replyDropper) Intercept(env *sim.Env, from, to rpc.HostID, service string, attempt int) rpc.Verdict {
	return rpc.Verdict{DropReply: service == d.service && from == d.from}
}

// TestLostUpdateLocReplyKeepsHomeOnSource: a process homed on one host hops
// to a second, then tries a third while every k.updateLoc reply from the
// second is lost. The home applied the update when the request arrived, so
// the aborted hop must point it back at the second host: the home names
// where the process runs, and a kill routed through the home reaches it.
func TestLostUpdateLocReplyKeepsHomeOnSource(t *testing.T) {
	eachShape(t, func(t *testing.T, confined bool) {
		c := newShapedCluster(t, 3, confined)
		home, mid, far := c.Workstation(0), c.Workstation(1), c.Workstation(2)
		c.Transport().SetInjector(replyDropper{service: "k.updateLoc", from: mid.Host()})
		hopped := sim.NewFuture()
		var first, second error
		c.Boot("boot", func(env *sim.Env) error {
			p, err := home.StartProcess(env, "hopper", func(ctx *Ctx) error {
				first = ctx.Migrate(mid.Host())
				second = ctx.Migrate(far.Host())
				hopped.Complete(ctx.Env(), nil, nil)
				return ctx.Compute(10 * time.Second)
			}, smallProc)
			if err != nil {
				return err
			}
			if _, err := hopped.Wait(env); err != nil {
				return err
			}
			if loc, err := home.LocationOf(p.PID()); err != nil || loc != mid.Host() {
				t.Errorf("home says (%v, %v), want %v", loc, err, mid.Host())
			}
			if err := c.Kill(env, home, p.PID()); err != nil {
				t.Errorf("kill via home: %v", err)
			}
			_, err = p.Exited().Wait(env)
			return err
		})
		runCluster(t, c)
		if first != nil || !errors.Is(second, rpc.ErrTimeout) {
			t.Errorf("hops: first %v, second %v; want nil and a timeout", first, second)
		}
		if v := c.CheckInvariants(true); len(v) != 0 {
			t.Errorf("invariants: %v", v)
		}
	})
}

// TestPendingMigrationDiesWithItsProcess: a request its process never
// reaches a migration point to serve — here an exec-time request on a
// process that never execs — resolves with ErrNoSuchProcess however the
// process ends: a normal exit, a foreign exit on a confined cluster (which
// settles on the home shard), or the crash of its host.
func TestPendingMigrationDiesWithItsProcess(t *testing.T) {
	idle := func(ctx *Ctx) error { return ctx.Compute(2 * time.Second) }

	t.Run("exit", func(t *testing.T) {
		c := newCluster(t, 2)
		src, dst := c.Workstation(0), c.Workstation(1)
		var merr error
		c.Boot("boot", func(env *sim.Env) error {
			p, err := src.StartProcess(env, "quitter", idle, smallProc)
			if err != nil {
				return err
			}
			_, merr = src.RequestExecMigration(p, dst, "test").Wait(env)
			return nil
		})
		runCluster(t, c)
		if !errors.Is(merr, ErrNoSuchProcess) {
			t.Fatalf("requester saw %v, want ErrNoSuchProcess", merr)
		}
	})

	t.Run("crash", func(t *testing.T) {
		c := newCluster(t, 2)
		src, dst := c.Workstation(0), c.Workstation(1)
		var merr error
		c.Boot("boot", func(env *sim.Env) error {
			p, err := src.StartProcess(env, "victim", idle, smallProc)
			if err != nil {
				return err
			}
			pending := src.RequestExecMigration(p, dst, "test")
			if err := env.Sleep(100 * time.Millisecond); err != nil {
				return err
			}
			c.CrashHost(env, src.Host())
			c.ReapDeadHost(env, src.Host(), c.HostEpoch(src.Host()))
			_, merr = pending.Wait(env)
			return nil
		})
		runCluster(t, c)
		if !errors.Is(merr, ErrNoSuchProcess) {
			t.Fatalf("requester saw %v, want ErrNoSuchProcess", merr)
		}
		if v := c.CheckInvariants(true); len(v) != 0 {
			t.Fatalf("invariants: %v", v)
		}
	})

	for _, simp := range []SimParams{{}, {Parallel: true, Workers: 2}} {
		simp := simp
		t.Run(fmt.Sprintf("confined-foreign-exit/parallel=%t", simp.Parallel), func(t *testing.T) {
			t.Setenv("SPRITE_SIM_PARALLEL", "")
			params := DefaultParams()
			params.Sim = simp
			params.Sim.ConfineHosts = true
			c, err := NewCluster(Options{Workstations: 2, FileServers: 1, Seed: 1, Params: &params})
			if err != nil {
				t.Fatal(err)
			}
			requireKernel(t, c, simp)
			if err := c.SeedBinary("/bin/prog", 128*1024); err != nil {
				t.Fatal(err)
			}
			home, away := c.Workstation(0), c.Workstation(1)
			c.BootOn(home.Host(), "driver", func(env *sim.Env) error {
				p, err := home.StartProcess(env, "guest", func(ctx *Ctx) error {
					if err := ctx.Migrate(away.Host()); err != nil {
						return err
					}
					return idle(ctx)
				}, smallProc)
				if err != nil {
					return err
				}
				_, err = p.Exited().Wait(env)
				return err
			})
			// The requester lives on the shard of the host the guest is
			// visiting, as an evictor would, and asks once it has settled.
			var merr error
			c.BootOn(away.Host(), "requester", func(env *sim.Env) error {
				if err := env.Sleep(time.Second); err != nil {
					return err
				}
				guests := away.ForeignProcesses()
				if len(guests) != 1 {
					return fmt.Errorf("%d guests on %v, want 1", len(guests), away.Host())
				}
				_, merr = away.RequestExecMigration(guests[0], home, "test").Wait(env)
				return nil
			})
			runCluster(t, c)
			if !errors.Is(merr, ErrNoSuchProcess) {
				t.Fatalf("requester saw %v, want ErrNoSuchProcess", merr)
			}
			if v := c.CheckInvariants(true); len(v) != 0 {
				t.Fatalf("invariants: %v", v)
			}
		})
	}
}

// TestCrashLeavesSurvivorsStaleUntilReaped pins the crash-knowledge model: a
// crash destroys only what lived on the dead host. Right after the home
// crashes, its migrated-away child keeps running as an orphan and the dead
// home still holds the family's records; only ReapDeadHost — a detector's
// verdict — kills the orphan and discards the records.
func TestCrashLeavesSurvivorsStaleUntilReaped(t *testing.T) {
	c := newCluster(t, 2)
	home, away := c.Workstation(0), c.Workstation(1)
	var child *Process
	c.Boot("boot", func(env *sim.Env) error {
		if _, err := home.StartProcess(env, "parent", func(ctx *Ctx) error {
			var err error
			if child, err = ctx.Fork("orphan", func(cc *Ctx) error {
				if err := cc.Migrate(away.Host()); err != nil {
					return err
				}
				return cc.Compute(2 * time.Second)
			}, smallProc); err != nil {
				return err
			}
			_, _, err = ctx.Wait()
			return err
		}, smallProc); err != nil {
			return err
		}
		if err := env.Sleep(500 * time.Millisecond); err != nil {
			return err
		}
		c.CrashHost(env, home.Host())
		if child.killed || child.State() != StateRunning || child.Current() != away || len(home.homeRecs) == 0 {
			t.Errorf("before reap: orphan killed=%t state=%v on %v, dead home holds %d records; want it running on %v and the records kept",
				child.killed, child.State(), child.Current().Host(), len(home.homeRecs), away.Host())
		}
		c.ReapDeadHost(env, home.Host(), c.HostEpoch(home.Host()))
		if !child.killed || len(home.homeRecs) != 0 {
			t.Errorf("after reap: orphan killed=%t, dead home holds %d records; want it killed and none", child.killed, len(home.homeRecs))
		}
		status, err := child.Exited().Wait(env)
		if status != -1 {
			t.Errorf("orphan exit status %v, want -1 (killed)", status)
		}
		return err
	})
	runCluster(t, c)
	if v := c.CheckInvariants(true); len(v) != 0 {
		t.Errorf("invariants: %v", v)
	}
}
