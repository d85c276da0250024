package pdev

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"sprite/internal/core"
	"sprite/internal/sim"
)

func newCluster(t *testing.T, workstations int) (*core.Cluster, *System) {
	t.Helper()
	c, err := core.NewCluster(core.Options{Workstations: workstations, FileServers: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
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
		defer dev.Close()
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
	c, sys := newCluster(t, 2)
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
}

func TestServerMigrationIsTransparentToClients(t *testing.T) {
	c, sys := newCluster(t, 3)
	srvK, cliK, dstK := c.Workstation(0), c.Workstation(1), c.Workstation(2)
	c.Boot("boot", func(env *sim.Env) error {
		srv, err := srvK.StartProcess(env, "server", func(ctx *core.Ctx) error {
			dev, err := sys.Serve(ctx, "/dev/svc")
			if err != nil {
				return err
			}
			defer dev.Close()
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
}

func TestClientMigrationIsTransparentToServer(t *testing.T) {
	c, sys := newCluster(t, 3)
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
}

func TestUnservedPathFails(t *testing.T) {
	c, sys := newCluster(t, 1)
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
}

func TestClosedDeviceRejectsCalls(t *testing.T) {
	c, sys := newCluster(t, 2)
	var got error
	c.Boot("boot", func(env *sim.Env) error {
		srv, err := c.Workstation(0).StartProcess(env, "server", func(ctx *core.Ctx) error {
			dev, err := sys.Serve(ctx, "/dev/once")
			if err != nil {
				return err
			}
			dev.Close()
			return nil
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
}

func TestManyClientsOneServer(t *testing.T) {
	c, sys := newCluster(t, 5)
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
}

// TestServerSurvivesEviction: the pseudo-device keeps serving when its
// process is *evicted* (not just explicitly migrated) — the realistic path
// in production.
func TestServerSurvivesEviction(t *testing.T) {
	c, sys := newCluster(t, 3)
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
			defer dev.Close()
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
			// The lent host's owner returns. Eviction runs concurrently:
			// the server is blocked reading its pseudo-device, so the
			// migration happens the moment the next request wakes it.
			lentK.NoteInput(ctx.Env().Now())
			ctx.Env().Spawn("evictor", func(ee *sim.Env) error {
				return lentK.EvictAll(ee)
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
}

func TestCallsCostTime(t *testing.T) {
	c, sys := newCluster(t, 2)
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
	// Two hops out + replies: at least 4 network latencies.
	if took < 2*time.Millisecond {
		t.Fatalf("pdev call took %v, want >= 2ms (two routed hops)", took)
	}
}
