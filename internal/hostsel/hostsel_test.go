package hostsel

import (
	"testing"
	"time"

	"sprite/internal/core"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// EachShape runs test as one subtest per cluster shape, handing it that
// shape's cluster parameters: "unconfined", every host on the exclusive
// shard with direct RPC, and "confined", each host on its own shard with
// mailbox RPC (Params.Sim.ConfineHosts). It is exported for the churn
// suite in the external test package.
func EachShape(t *testing.T, test func(t *testing.T, params *core.Params)) {
	for _, confined := range []bool{false, true} {
		params := core.DefaultParams()
		params.Sim.ConfineHosts = confined
		name := "unconfined"
		if confined {
			name = "confined"
		}
		t.Run(name, func(t *testing.T) { test(t, &params) })
	}
}

// newCluster builds a cluster of params' shape.
func newCluster(t *testing.T, params *core.Params, workstations int) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(core.Options{Workstations: workstations, FileServers: 1, Seed: 7, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	if params.Sim.ConfineHosts && !c.Transport().Confined() {
		t.Fatal("cluster is not confined")
	}
	return c
}

// warmup advances past the idle-input age so quiet hosts are available.
func warmup(env *sim.Env) error { return env.Sleep(time.Minute) }

// announceAll pushes every workstation's availability into the selector.
func announceAll(env *sim.Env, c *core.Cluster, sel Selector) error {
	for _, k := range c.Workstations() {
		if err := sel.NotifyAvailability(env, k.Host(), k.Available(env.Now())); err != nil {
			return err
		}
	}
	return nil
}

// selectors returns one instance of each architecture, freshly wired.
func selectors(t *testing.T, c *core.Cluster) []Selector {
	t.Helper()
	sf, err := NewSharedFile(c, "")
	if err != nil {
		t.Fatal(err)
	}
	// For the deterministic request/grant tests the gossip selector uses
	// full fanout so one announcement reaches every view.
	probParams := DefaultProbabilisticParams()
	probParams.Fanout = 64
	return []Selector{
		NewCentral(c, rpc.HostID(1), DefaultCentralParams()),
		sf,
		NewProbabilistic(c, probParams),
		NewMulticast(c),
	}
}

func TestRequestAndReleaseAllArchitectures(t *testing.T) {
	EachShape(t, func(t *testing.T, params *core.Params) {
		c := newCluster(t, params, 5)
		sels := selectors(t, c)
		c.Boot("boot", func(env *sim.Env) error {
			if err := warmup(env); err != nil {
				return err
			}
			client := c.Workstation(0).Host()
			for _, sel := range sels {
				if err := announceAll(env, c, sel); err != nil {
					return err
				}
				hosts, err := sel.RequestHosts(env, client, 2)
				if err != nil {
					return err
				}
				if len(hosts) != 2 {
					t.Errorf("%s: got %d hosts, want 2", sel.Name(), len(hosts))
				}
				for _, h := range hosts {
					if h == client {
						t.Errorf("%s: granted the client itself", sel.Name())
					}
				}
				if err := sel.Release(env, client, hosts); err != nil {
					return err
				}
				// After release the hosts are available again.
				again, err := sel.RequestHosts(env, client, 4)
				if err != nil {
					return err
				}
				if len(again) != 4 {
					t.Errorf("%s: after release got %d hosts, want 4", sel.Name(), len(again))
				}
				if err := sel.Release(env, client, again); err != nil {
					return err
				}
			}
			return nil
		})
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
	})
}

func TestNoDoubleGrant(t *testing.T) {
	EachShape(t, func(t *testing.T, params *core.Params) {
		c := newCluster(t, params, 4)
		sels := selectors(t, c)
		c.Boot("boot", func(env *sim.Env) error {
			if err := warmup(env); err != nil {
				return err
			}
			a, b := c.Workstation(0).Host(), c.Workstation(1).Host()
			for _, sel := range sels {
				if err := announceAll(env, c, sel); err != nil {
					return err
				}
				ha, err := sel.RequestHosts(env, a, 4)
				if err != nil {
					return err
				}
				hb, err := sel.RequestHosts(env, b, 4)
				if err != nil {
					return err
				}
				for _, x := range ha {
					for _, y := range hb {
						if x == y {
							t.Errorf("%s: host %v granted twice", sel.Name(), x)
						}
					}
				}
				if err := sel.Release(env, a, ha); err != nil {
					return err
				}
				if err := sel.Release(env, b, hb); err != nil {
					return err
				}
			}
			return nil
		})
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBusyHostsNotOffered(t *testing.T) {
	EachShape(t, func(t *testing.T, params *core.Params) {
		c := newCluster(t, params, 3)
		c.Boot("boot", func(env *sim.Env) error {
			if err := warmup(env); err != nil {
				return err
			}
			// Host 1 (workstation index 1) has a user typing.
			c.Workstation(1).NoteInput(env.Now())
			sel := NewCentral(c, rpc.HostID(1), DefaultCentralParams())
			if err := announceAll(env, c, sel); err != nil {
				return err
			}
			hosts, err := sel.RequestHosts(env, c.Workstation(0).Host(), 3)
			if err != nil {
				return err
			}
			for _, h := range hosts {
				if h == c.Workstation(1).Host() {
					t.Error("busy host was offered")
				}
			}
			if len(hosts) != 1 {
				t.Errorf("got %d hosts, want 1 (only ws2 is idle and not the client)", len(hosts))
			}
			return nil
		})
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCentralFairAllocationUnderContention(t *testing.T) {
	EachShape(t, func(t *testing.T, params *core.Params) {
		c := newCluster(t, params, 9)
		sel := NewCentral(c, rpc.HostID(1), DefaultCentralParams())
		c.Boot("boot", func(env *sim.Env) error {
			if err := warmup(env); err != nil {
				return err
			}
			if err := announceAll(env, c, sel); err != nil {
				return err
			}
			a, b := c.Workstation(0).Host(), c.Workstation(1).Host()
			// 7 other idle hosts exist. A asks for all of them first.
			ha, err := sel.RequestHosts(env, a, 7)
			if err != nil {
				return err
			}
			if len(ha) != 7 {
				t.Fatalf("uncontended request got %d, want 7", len(ha))
			}
			// Release half; now B competes and must get a fair share rather
			// than nothing while A holds the rest.
			if err := sel.Release(env, a, ha[:4]); err != nil {
				return err
			}
			hb, err := sel.RequestHosts(env, b, 7)
			if err != nil {
				return err
			}
			if len(hb) < 2 {
				t.Errorf("contended request got %d hosts, want a fair share (>=2)", len(hb))
			}
			return nil
		})
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCentralEvictsOnOwnerReturn(t *testing.T) {
	EachShape(t, func(t *testing.T, params *core.Params) {
		c := newCluster(t, params, 2)
		if err := c.SeedBinary("/bin/prog", 64*1024); err != nil {
			t.Fatal(err)
		}
		sel := NewCentral(c, rpc.HostID(1), DefaultCentralParams())
		home, lent := c.Workstation(0), c.Workstation(1)
		cfg := core.ProcConfig{Binary: "/bin/prog", CodePages: 2, HeapPages: 4, StackPages: 1}
		c.Boot("boot", func(env *sim.Env) error {
			if err := warmup(env); err != nil {
				return err
			}
			if err := announceAll(env, c, sel); err != nil {
				return err
			}
			hosts, err := sel.RequestHosts(env, home.Host(), 1)
			if err != nil {
				return err
			}
			if len(hosts) != 1 || hosts[0] != lent.Host() {
				t.Fatalf("hosts = %v, want [%v]", hosts, lent.Host())
			}
			p, err := home.StartProcess(env, "guest", func(ctx *core.Ctx) error {
				if err := ctx.Migrate(lent.Host()); err != nil {
					return err
				}
				return ctx.Compute(time.Hour)
			}, cfg)
			if err != nil {
				return err
			}
			if err := env.Sleep(2 * time.Second); err != nil {
				return err
			}
			// The lent host's owner comes back: its load daemon reports
			// unavailability and migd triggers eviction.
			lent.NoteInput(env.Now())
			if err := sel.NotifyAvailability(env, lent.Host(), false); err != nil {
				return err
			}
			if p.Current() != home {
				t.Errorf("guest on %v after owner return, want home", p.Current().Host())
			}
			if len(lent.ForeignProcesses()) != 0 {
				t.Error("foreign processes remain on reclaimed host")
			}
			// Stop the long compute.
			killer, err := home.StartProcess(env, "killer", func(ctx *core.Ctx) error {
				return ctx.Kill(p.PID())
			}, cfg)
			if err != nil {
				return err
			}
			if _, err := killer.Exited().Wait(env); err != nil {
				return err
			}
			_, err = p.Exited().Wait(env)
			return err
		})
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		if sel.Stats().Evictions != 1 {
			t.Fatalf("evictions = %d, want 1", sel.Stats().Evictions)
		}
	})
}

func TestProbabilisticGossipPropagates(t *testing.T) {
	EachShape(t, func(t *testing.T, params *core.Params) {
		c := newCluster(t, params, 6)
		sel := NewProbabilistic(c, DefaultProbabilisticParams())
		c.Boot("boot", func(env *sim.Env) error {
			if err := warmup(env); err != nil {
				return err
			}
			sel.StartDaemons(env)
			// Let gossip circulate for a while.
			if err := env.Sleep(10 * time.Second); err != nil {
				return err
			}
			client := c.Workstation(0).Host()
			hosts, err := sel.RequestHosts(env, client, 3)
			if err != nil {
				return err
			}
			if len(hosts) == 0 {
				t.Error("gossip never delivered any availability")
			}
			if err := sel.Release(env, client, hosts); err != nil {
				return err
			}
			sel.Stop()
			return nil
		})
		if err := c.Run(2 * time.Minute); err != nil {
			t.Fatal(err)
		}
		c.Stop()
		_ = c.Run(0)
		if sel.Stats().Messages == 0 {
			t.Fatal("no gossip messages recorded")
		}
	})
}

func TestProbabilisticStaleViewCausesConflict(t *testing.T) {
	EachShape(t, func(t *testing.T, params *core.Params) {
		c := newCluster(t, params, 3)
		sel := NewProbabilistic(c, DefaultProbabilisticParams())
		c.Boot("boot", func(env *sim.Env) error {
			if err := warmup(env); err != nil {
				return err
			}
			// Announce host 2 as available, then make it busy without gossiping.
			target := c.Workstation(1)
			if err := sel.NotifyAvailability(env, target.Host(), true); err != nil {
				return err
			}
			// Force the stale entry into every view (fanout randomness may
			// have missed the client); direct injection keeps the test exact.
			for _, st := range sel.stations {
				st.view.Put(VectorEntry{
					Host:      target.Host(),
					Available: true,
					Epoch:     c.HostEpoch(target.Host()),
				})
			}
			target.NoteInput(env.Now()) // user returns; views are now stale
			client := c.Workstation(0).Host()
			hosts, err := sel.RequestHosts(env, client, 1)
			if err != nil {
				return err
			}
			for _, h := range hosts {
				if h == target.Host() {
					t.Error("claimed a busy host")
				}
			}
			return nil
		})
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		if sel.Stats().Conflicts == 0 {
			t.Fatal("stale claim should have counted a conflict")
		}
	})
}

func TestMulticastStatelessQuery(t *testing.T) {
	EachShape(t, func(t *testing.T, params *core.Params) {
		c := newCluster(t, params, 5)
		sel := NewMulticast(c)
		c.Boot("boot", func(env *sim.Env) error {
			if err := warmup(env); err != nil {
				return err
			}
			client := c.Workstation(0).Host()
			hosts, err := sel.RequestHosts(env, client, 2)
			if err != nil {
				return err
			}
			if len(hosts) != 2 {
				t.Errorf("got %d hosts, want 2", len(hosts))
			}
			return sel.Release(env, client, hosts)
		})
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		// 1 multicast + 4 replies + 2 claims + 2 releases
		if sel.Stats().Messages < 9 {
			t.Fatalf("messages = %d, want >= 9", sel.Stats().Messages)
		}
	})
}

func TestSharedFileDisablesCachingByDesign(t *testing.T) {
	EachShape(t, func(t *testing.T, params *core.Params) {
		c := newCluster(t, params, 4)
		sf, err := NewSharedFile(c, "")
		if err != nil {
			t.Fatal(err)
		}
		c.Boot("boot", func(env *sim.Env) error {
			if err := warmup(env); err != nil {
				return err
			}
			// Several hosts update their records: concurrent write sharing.
			for _, k := range c.Workstations() {
				if err := sf.NotifyAvailability(env, k.Host(), true); err != nil {
					return err
				}
			}
			hosts, err := sf.RequestHosts(env, c.Workstation(0).Host(), 2)
			if err != nil {
				return err
			}
			if len(hosts) != 2 {
				t.Errorf("got %d hosts, want 2", len(hosts))
			}
			return sf.Release(env, c.Workstation(0).Host(), hosts)
		})
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		// The state file is write-shared by every host, so it is seeded
		// never-cacheable: no client may hold its blocks, and every record read
		// and write is a file-server round trip — the per-operation cost that
		// made the shared-file design expensive. Four notifications, one scan,
		// and one release must all have hit the server's block counters.
		st := c.Servers()[0].Stats()
		if st.BlocksRead < 6 || st.BlocksWrite < 6 {
			t.Fatalf("uncached state file should hit the server per operation: reads=%d writes=%d", st.BlocksRead, st.BlocksWrite)
		}
	})
}

func TestAvailabilityUpdateCostOrdering(t *testing.T) {
	EachShape(t, func(t *testing.T, params *core.Params) {
		// The load-bearing difference that made Sprite replace the shared file
		// with migd: every availability transition through the shared file is
		// an open/read/write/close against the file server, several times the
		// cost of migd's single small RPC.
		c := newCluster(t, params, 8)
		central := NewCentral(c, rpc.HostID(1), DefaultCentralParams())
		sf, err := NewSharedFile(c, "")
		if err != nil {
			t.Fatal(err)
		}
		var centralUpdate, sharedUpdate time.Duration
		c.Boot("boot", func(env *sim.Env) error {
			if err := warmup(env); err != nil {
				return err
			}
			host := c.Workstation(3).Host()
			t0 := env.Now()
			if err := central.NotifyAvailability(env, host, true); err != nil {
				return err
			}
			centralUpdate = env.Now() - t0
			t0 = env.Now()
			if err := sf.NotifyAvailability(env, host, true); err != nil {
				return err
			}
			sharedUpdate = env.Now() - t0
			return nil
		})
		if err := c.Run(0); err != nil {
			t.Fatal(err)
		}
		if centralUpdate <= 0 || sharedUpdate <= 0 {
			t.Fatalf("times: central=%v shared=%v", centralUpdate, sharedUpdate)
		}
		if sharedUpdate <= centralUpdate {
			t.Fatalf("shared-file update (%v) should cost more than central update (%v)", sharedUpdate, centralUpdate)
		}
	})
}
