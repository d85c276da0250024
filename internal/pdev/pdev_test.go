package pdev

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"sprite/internal/core"
	"sprite/internal/sim"
)

// shape is a cluster shape every test runs on: every host on the
// exclusive shard with direct RPC, or each host confined to its own shard
// with mailbox RPC (Params.Sim.ConfineHosts).
type shape struct {
	name     string
	confined bool
}

var shapes = []shape{{"unconfined", false}, {"confined", true}}

// eachShape runs test as one subtest per cluster shape.
func eachShape(t *testing.T, test func(t *testing.T, sh shape)) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) { test(t, sh) })
	}
}

func newCluster(t *testing.T, sh shape, workstations int) (*core.Cluster, *System) {
	t.Helper()
	params := core.DefaultParams()
	params.Sim.ConfineHosts = sh.confined
	c, err := core.NewCluster(core.Options{Workstations: workstations, FileServers: 1, Seed: 5, Params: &params})
	if err != nil {
		t.Fatal(err)
	}
	if sh.confined && !c.Transport().Confined() {
		t.Fatal("cluster is not confined")
	}
	if err := c.SeedBinary("/bin/prog", 64*1024); err != nil {
		t.Fatal(err)
	}
	return c, NewSystem(c)
}

var cfg = core.ProcConfig{Binary: "/bin/prog", CodePages: 4, HeapPages: 8, StackPages: 2}

// echoServer serves path, answering n requests by echoing with a prefix.
func echoServer(sys *System, path string, n int) core.Program {
	return func(ctx *core.Ctx) error {
		dev, err := sys.Serve(ctx, path)
		if err != nil {
			return err
		}
		defer dev.Close(ctx)
		for i := 0; i < n; i++ {
			req, err := dev.Recv(ctx)
			if err != nil {
				return err
			}
			if err := dev.Reply(ctx, req, append([]byte("echo:"), req.Data...)); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestRequestResponseAcrossHosts(t *testing.T) {
	eachShape(t, func(t *testing.T, sh shape) {
		c, sys := newCluster(t, sh, 2)
		srvK, cliK := c.Workstation(0), c.Workstation(1)
		c.Boot("boot", func(env *sim.Env) error {
			srv, err := srvK.StartProcess(env, "ipserver", echoServer(sys, "/dev/ip", 1), cfg)
			if err != nil {
				return err
			}
			cli, err := cliK.StartProcess(env, "client", func(ctx *core.Ctx) error {
				if err := ctx.Env().Sleep(10 * time.Millisecond); err != nil {
					return err
				}
				reply, err := sys.Call(ctx, "/dev/ip", []byte("hello"))
				if err != nil {
					return err
				}
				if string(reply) != "echo:hello" {
					t.Errorf("reply = %q", reply)
				}
				return nil
			}, cfg)
			if err != nil {
				return err
			}
			if _, err := cli.Exited().Wait(env); err != nil {
				return err
			}
			_, err = srv.Exited().Wait(env)
			return err
		})
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
	})
}

func TestServerMigrationIsTransparentToClients(t *testing.T) {
	eachShape(t, func(t *testing.T, sh shape) {
		c, sys := newCluster(t, sh, 3)
		srvK, cliK, dstK := c.Workstation(0), c.Workstation(1), c.Workstation(2)
		c.Boot("boot", func(env *sim.Env) error {
			srv, err := srvK.StartProcess(env, "server", func(ctx *core.Ctx) error {
				dev, err := sys.Serve(ctx, "/dev/svc")
				if err != nil {
					return err
				}
				defer dev.Close(ctx)
				// Answer one request at home.
				req, err := dev.Recv(ctx)
				if err != nil {
					return err
				}
				if err := dev.Reply(ctx, req, []byte("from-home")); err != nil {
					return err
				}
				// Migrate, then answer another.
				if err := ctx.Migrate(dstK.Host()); err != nil {
					return err
				}
				req, err = dev.Recv(ctx)
				if err != nil {
					return err
				}
				return dev.Reply(ctx, req, []byte("from-away"))
			}, cfg)
			if err != nil {
				return err
			}
			cli, err := cliK.StartProcess(env, "client", func(ctx *core.Ctx) error {
				if err := ctx.Env().Sleep(10 * time.Millisecond); err != nil {
					return err
				}
				r1, err := sys.Call(ctx, "/dev/svc", []byte("a"))
				if err != nil {
					return err
				}
				// Give the server time to migrate.
				if err := ctx.Env().Sleep(5 * time.Second); err != nil {
					return err
				}
				r2, err := sys.Call(ctx, "/dev/svc", []byte("b"))
				if err != nil {
					return err
				}
				if string(r1) != "from-home" || string(r2) != "from-away" {
					t.Errorf("replies = %q, %q", r1, r2)
				}
				return nil
			}, cfg)
			if err != nil {
				return err
			}
			if _, err := cli.Exited().Wait(env); err != nil {
				return err
			}
			_, err = srv.Exited().Wait(env)
			return err
		})
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
	})
}

func TestClientMigrationIsTransparentToServer(t *testing.T) {
	eachShape(t, func(t *testing.T, sh shape) {
		c, sys := newCluster(t, sh, 3)
		srvK, cliK, dstK := c.Workstation(0), c.Workstation(1), c.Workstation(2)
		c.Boot("boot", func(env *sim.Env) error {
			srv, err := srvK.StartProcess(env, "server", echoServer(sys, "/dev/svc", 2), cfg)
			if err != nil {
				return err
			}
			cli, err := cliK.StartProcess(env, "client", func(ctx *core.Ctx) error {
				if err := ctx.Env().Sleep(10 * time.Millisecond); err != nil {
					return err
				}
				if _, err := sys.Call(ctx, "/dev/svc", []byte("one")); err != nil {
					return err
				}
				if err := ctx.Migrate(dstK.Host()); err != nil {
					return err
				}
				reply, err := sys.Call(ctx, "/dev/svc", []byte("two"))
				if err != nil {
					return err
				}
				if string(reply) != "echo:two" {
					t.Errorf("reply after migration = %q", reply)
				}
				return nil
			}, cfg)
			if err != nil {
				return err
			}
			if _, err := cli.Exited().Wait(env); err != nil {
				return err
			}
			_, err = srv.Exited().Wait(env)
			return err
		})
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
	})
}

func TestUnservedPathFails(t *testing.T) {
	eachShape(t, func(t *testing.T, sh shape) {
		c, sys := newCluster(t, sh, 1)
		var got error
		c.Boot("boot", func(env *sim.Env) error {
			p, err := c.Workstation(0).StartProcess(env, "client", func(ctx *core.Ctx) error {
				_, got = sys.Call(ctx, "/dev/ghost", []byte("x"))
				return nil
			}, cfg)
			if err != nil {
				return err
			}
			_, err = p.Exited().Wait(env)
			return err
		})
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		if !errors.Is(got, ErrNotServed) {
			t.Fatalf("err = %v, want ErrNotServed", got)
		}
	})
}

func TestClosedDeviceRejectsCalls(t *testing.T) {
	eachShape(t, func(t *testing.T, sh shape) {
		c, sys := newCluster(t, sh, 2)
		var got error
		c.Boot("boot", func(env *sim.Env) error {
			srv, err := c.Workstation(0).StartProcess(env, "server", func(ctx *core.Ctx) error {
				dev, err := sys.Serve(ctx, "/dev/once")
				if err != nil {
					return err
				}
				return dev.Close(ctx)
			}, cfg)
			if err != nil {
				return err
			}
			if _, err := srv.Exited().Wait(env); err != nil {
				return err
			}
			cli, err := c.Workstation(1).StartProcess(env, "client", func(ctx *core.Ctx) error {
				_, got = sys.Call(ctx, "/dev/once", []byte("x"))
				return nil
			}, cfg)
			if err != nil {
				return err
			}
			_, err = cli.Exited().Wait(env)
			return err
		})
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		if !errors.Is(got, ErrNotServed) {
			t.Fatalf("err = %v, want ErrNotServed", got)
		}
	})
}

// TestCloseFailsQueuedCallers: a request already queued when the server
// closes its device is answered with ErrNotServed, not left waiting.
func TestCloseFailsQueuedCallers(t *testing.T) {
	eachShape(t, func(t *testing.T, sh shape) {
		c, sys := newCluster(t, sh, 2)
		var got error
		c.Boot("boot", func(env *sim.Env) error {
			srv, err := c.Workstation(0).StartProcess(env, "server", func(ctx *core.Ctx) error {
				dev, err := sys.Serve(ctx, "/dev/late")
				if err != nil {
					return err
				}
				if err := ctx.Env().Sleep(time.Second); err != nil {
					return err
				}
				return dev.Close(ctx)
			}, cfg)
			if err != nil {
				return err
			}
			cli, err := c.Workstation(1).StartProcess(env, "client", func(ctx *core.Ctx) error {
				if err := ctx.Env().Sleep(10 * time.Millisecond); err != nil {
					return err
				}
				_, got = sys.Call(ctx, "/dev/late", []byte("x"))
				return nil
			}, cfg)
			if err != nil {
				return err
			}
			if _, err := cli.Exited().Wait(env); err != nil {
				return err
			}
			_, err = srv.Exited().Wait(env)
			return err
		})
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		if !errors.Is(got, ErrNotServed) {
			t.Fatalf("err = %v, want ErrNotServed", got)
		}
	})
}

// TestServeServedPathFails: a path has one server at a time; once it
// closes the device, the path can be served again.
func TestServeServedPathFails(t *testing.T) {
	eachShape(t, func(t *testing.T, sh shape) {
		c, sys := newCluster(t, sh, 1)
		var second, third error
		c.Boot("boot", func(env *sim.Env) error {
			p, err := c.Workstation(0).StartProcess(env, "server", func(ctx *core.Ctx) error {
				dev, err := sys.Serve(ctx, "/dev/one")
				if err != nil {
					return err
				}
				_, second = sys.Serve(ctx, "/dev/one")
				if err := dev.Close(ctx); err != nil {
					return err
				}
				dev, third = sys.Serve(ctx, "/dev/one")
				if third != nil {
					return nil
				}
				return dev.Close(ctx)
			}, cfg)
			if err != nil {
				return err
			}
			_, err = p.Exited().Wait(env)
			return err
		})
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		if second == nil || third != nil {
			t.Fatalf("second Serve err = %v (want an error), Serve after Close err = %v (want nil)", second, third)
		}
	})
}

func TestManyClientsOneServer(t *testing.T) {
	eachShape(t, func(t *testing.T, sh shape) {
		c, sys := newCluster(t, sh, 5)
		const reqsPerClient = 3
		clients := 4
		c.Boot("boot", func(env *sim.Env) error {
			srv, err := c.Workstation(0).StartProcess(env, "server",
				echoServer(sys, "/dev/busy", clients*reqsPerClient), cfg)
			if err != nil {
				return err
			}
			// The clients are joined by their exit futures, which a confined
			// cluster delivers to this exclusive driver too.
			var joins []*core.Process
			for i := 0; i < clients; i++ {
				k := c.Workstation(1 + i)
				idx := i
				cli, err := k.StartProcess(env, fmt.Sprintf("client%d", i), func(ctx *core.Ctx) error {
					if err := ctx.Env().Sleep(10 * time.Millisecond); err != nil {
						return err
					}
					for r := 0; r < reqsPerClient; r++ {
						msg := []byte(fmt.Sprintf("c%d-r%d", idx, r))
						reply, err := sys.Call(ctx, "/dev/busy", msg)
						if err != nil {
							return err
						}
						if string(reply) != "echo:"+string(msg) {
							t.Errorf("reply = %q for %q", reply, msg)
						}
					}
					return nil
				}, cfg)
				if err != nil {
					return err
				}
				joins = append(joins, cli)
			}
			for _, cli := range joins {
				if _, err := cli.Exited().Wait(env); err != nil {
					return err
				}
			}
			_, err = srv.Exited().Wait(env)
			return err
		})
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
	})
}

// TestServerSurvivesEviction: the pseudo-device keeps serving when its
// process is *evicted* (not just explicitly migrated) — the realistic path
// in production.
func TestServerSurvivesEviction(t *testing.T) {
	eachShape(t, func(t *testing.T, sh shape) {
		c, sys := newCluster(t, sh, 3)
		homeK, lentK, cliK := c.Workstation(0), c.Workstation(1), c.Workstation(2)
		c.Boot("boot", func(env *sim.Env) error {
			srv, err := homeK.StartProcess(env, "server", func(ctx *core.Ctx) error {
				if err := ctx.Migrate(lentK.Host()); err != nil {
					return err
				}
				dev, err := sys.Serve(ctx, "/dev/evictable")
				if err != nil {
					return err
				}
				defer dev.Close(ctx)
				for i := 0; i < 2; i++ {
					req, err := dev.Recv(ctx)
					if err != nil {
						return err
					}
					where := ctx.Process().Current().Host()
					if err := dev.Reply(ctx, req, []byte(where.String())); err != nil {
						return err
					}
				}
				return nil
			}, cfg)
			if err != nil {
				return err
			}
			cli, err := cliK.StartProcess(env, "client", func(ctx *core.Ctx) error {
				if err := ctx.Env().Sleep(time.Second); err != nil {
					return err
				}
				r1, err := sys.Call(ctx, "/dev/evictable", []byte("a"))
				if err != nil {
					return err
				}
				if string(r1) != lentK.Host().String() {
					t.Errorf("first reply from %q, want lent host", r1)
				}
				// The lent host's owner returns, and the lent host is asked
				// to evict its foreign processes, as the central selector
				// asks it. Eviction runs concurrently: the server is
				// blocked reading its pseudo-device, so the migration
				// happens the moment the next request wakes it.
				ep := c.Transport().Endpoint(cliK.Host())
				ctx.Env().Spawn("evictor", func(ee *sim.Env) error {
					_, err := core.EvictService.Call(ep, ee, lentK.Host(), struct{}{}, 16)
					return err
				})
				if err := ctx.Env().Sleep(100 * time.Millisecond); err != nil {
					return err
				}
				r2, err := sys.Call(ctx, "/dev/evictable", []byte("b"))
				if err != nil {
					return err
				}
				if string(r2) != homeK.Host().String() {
					t.Errorf("post-eviction reply from %q, want home host", r2)
				}
				return nil
			}, cfg)
			if err != nil {
				return err
			}
			if _, err := cli.Exited().Wait(env); err != nil {
				return err
			}
			_, err = srv.Exited().Wait(env)
			return err
		})
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCallsCostTime(t *testing.T) {
	eachShape(t, func(t *testing.T, sh shape) {
		c, sys := newCluster(t, sh, 2)
		var took time.Duration
		c.Boot("boot", func(env *sim.Env) error {
			srv, err := c.Workstation(0).StartProcess(env, "server", echoServer(sys, "/dev/t", 1), cfg)
			if err != nil {
				return err
			}
			cli, err := c.Workstation(1).StartProcess(env, "client", func(ctx *core.Ctx) error {
				if err := ctx.Env().Sleep(10 * time.Millisecond); err != nil {
					return err
				}
				t0 := ctx.Now()
				if _, err := sys.Call(ctx, "/dev/t", make([]byte, 1024)); err != nil {
					return err
				}
				took = ctx.Now() - t0
				return nil
			}, cfg)
			if err != nil {
				return err
			}
			if _, err := cli.Exited().Wait(env); err != nil {
				return err
			}
			_, err = srv.Exited().Wait(env)
			return err
		})
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		// The request reaches the I/O server, the serving process's Recv
		// returns with it, its Reply reaches the I/O server, and the answer
		// comes back: at least 4 network latencies.
		if took < 2*time.Millisecond {
			t.Fatalf("pdev call took %v, want >= 2ms (two routed hops)", took)
		}
	})
}

// TestIdleServerLetsRunQuiesce: a server that answers one request and then
// waits in Recv for a client that never comes does not turn the quiescent
// run into a deadlock. The run ends cleanly and the waiting Recv returns
// sim.ErrStopped.
func TestIdleServerLetsRunQuiesce(t *testing.T) {
	eachShape(t, func(t *testing.T, sh shape) {
		c, sys := newCluster(t, sh, 2)
		var idle error
		c.Boot("boot", func(env *sim.Env) error {
			_, err := c.Workstation(0).StartProcess(env, "server", func(ctx *core.Ctx) error {
				dev, err := sys.Serve(ctx, "/dev/idle")
				if err != nil {
					return err
				}
				for {
					req, err := dev.Recv(ctx)
					if err != nil {
						idle = err
						return err
					}
					if err := dev.Reply(ctx, req, req.Data); err != nil {
						return err
					}
				}
			}, cfg)
			if err != nil {
				return err
			}
			cli, err := c.Workstation(1).StartProcess(env, "client", func(ctx *core.Ctx) error {
				if err := ctx.Env().Sleep(10 * time.Millisecond); err != nil {
					return err
				}
				_, err := sys.Call(ctx, "/dev/idle", []byte("once"))
				return err
			}, cfg)
			if err != nil {
				return err
			}
			_, err = cli.Exited().Wait(env)
			return err
		})
		if err := c.Run(0); err != nil {
			t.Fatalf("quiescent run with an idle server: %v", err)
		}
		if !errors.Is(idle, sim.ErrStopped) {
			t.Fatalf("idle Recv returned %v, want sim.ErrStopped", idle)
		}
	})
}

// TestReapClosesDevicesOfDeadServer: a device whose server's host crashed
// is closed when the host is reaped. A caller queued before the crash and
// one that calls after the reap both get ErrNotServed. A device that the
// host's next incarnation serves survives the late reap of the old one.
// Crashes are unconfined-only, so this runs on the unconfined shape.
func TestReapClosesDevicesOfDeadServer(t *testing.T) {
	c, sys := newCluster(t, shapes[0], 3)
	srvK, cliK := c.Workstation(0), c.Workstation(1)
	var queued, late, reborn error
	c.Boot("boot", func(env *sim.Env) error {
		served := sim.NewFuture()
		_, err := srvK.StartProcess(env, "server", func(ctx *core.Ctx) error {
			if _, err := sys.Serve(ctx, "/dev/old"); err != nil {
				return err
			}
			served.Complete(ctx.Env(), nil, nil)
			return ctx.Compute(time.Second) // busy: never takes a request
		}, cfg)
		if err != nil {
			return err
		}
		if _, err := served.Wait(env); err != nil {
			return err
		}
		first, err := cliK.StartProcess(env, "queued", func(ctx *core.Ctx) error {
			_, queued = sys.Call(ctx, "/dev/old", []byte("x"))
			return nil
		}, cfg)
		if err != nil {
			return err
		}
		if err := env.Sleep(10 * time.Millisecond); err != nil {
			return err
		}
		epoch := c.HostEpoch(srvK.Host())
		c.CrashHost(env, srvK.Host())
		c.RestartHost(env, srvK.Host())
		srv2, err := srvK.StartProcess(env, "server2", echoServer(sys, "/dev/new", 1), cfg)
		if err != nil {
			return err
		}
		if err := env.Sleep(10 * time.Millisecond); err != nil {
			return err
		}
		c.ReapDeadHost(env, srvK.Host(), epoch)
		if _, err := first.Exited().Wait(env); err != nil {
			return err
		}
		second, err := cliK.StartProcess(env, "late", func(ctx *core.Ctx) error {
			_, late = sys.Call(ctx, "/dev/old", []byte("y"))
			_, reborn = sys.Call(ctx, "/dev/new", []byte("z"))
			return nil
		}, cfg)
		if err != nil {
			return err
		}
		if _, err := second.Exited().Wait(env); err != nil {
			return err
		}
		_, err = srv2.Exited().Wait(env)
		return err
	})
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(queued, ErrNotServed) || !errors.Is(late, ErrNotServed) {
		t.Errorf("callers of the dead server's device got (%v, %v), want ErrNotServed", queued, late)
	}
	if reborn != nil {
		t.Errorf("the next incarnation's device: %v, want served", reborn)
	}
}
