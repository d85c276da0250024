// Churn scenario suite: every selector architecture is exercised under
// reboot storms, flapping availability, and network partitions, with the
// ClaimLedger registered into Cluster.CheckInvariants so the no-double-claim
// and no-lost-request audits run through the same invariant machinery as the
// kernel checks.
//
// This lives in an external test package because internal/fault now imports
// internal/hostsel (the fuzzer drives the gossip selector); an in-package
// test importing fault would be an import cycle.
package hostsel_test

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sprite/internal/core"
	"sprite/internal/fault"
	"sprite/internal/hostsel"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

const (
	churnWorkstations = 16
	churnRequesters   = 3 // workstation indices 0..2 issue requests
	churnFaultBase    = 8 // workstation indices >= this absorb the faults
)

// tolerableErr mirrors the selector protocols' own churn tolerance: a host
// that is down, unreachable, or freshly rebooted mid-protocol is expected
// weather, not a test failure.
func tolerableErr(err error) bool {
	for _, e := range []error{rpc.ErrHostDown, rpc.ErrTimeout, rpc.ErrNoService, rpc.ErrNoHost, hostsel.ErrNoHosts} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// churnBuild constructs one selector architecture on c and reports the claim
// lease the ledger should honour (0 = grants never expire).
type churnBuild struct {
	name  string
	build func(t *testing.T, c *core.Cluster) (hostsel.Selector, time.Duration)
}

func churnBuilds() []churnBuild {
	return []churnBuild{
		{"central", func(t *testing.T, c *core.Cluster) (hostsel.Selector, time.Duration) {
			return hostsel.NewCentral(c, rpc.HostID(1), hostsel.DefaultCentralParams()), 0
		}},
		{"sharedfile", func(t *testing.T, c *core.Cluster) (hostsel.Selector, time.Duration) {
			sf, err := hostsel.NewSharedFile(c, "")
			if err != nil {
				t.Fatal(err)
			}
			return sf, 0
		}},
		{"gossip", func(t *testing.T, c *core.Cluster) (hostsel.Selector, time.Duration) {
			p := hostsel.DefaultProbabilisticParams()
			return hostsel.NewProbabilistic(c, p), p.ClaimLease
		}},
		{"multicast", func(t *testing.T, c *core.Cluster) (hostsel.Selector, time.Duration) {
			return hostsel.NewMulticast(c), 0
		}},
	}
}

// faultHosts returns the host ids of the workstations designated to absorb
// reboots, flaps, and partitions.
func faultHosts(c *core.Cluster) []rpc.HostID {
	var hosts []rpc.HostID
	for i := churnFaultBase; i < churnWorkstations; i++ {
		hosts = append(hosts, c.Workstation(i).Host())
	}
	return hosts
}

// runChurn builds a 16-workstation cluster on params (nil: the defaults),
// wires one selector wrapped in a ClaimLedger, lets inject schedule the
// churn, and drives announcer and requester activities through it. It
// returns a deterministic digest of the selector's end state; any invariant
// violation fails the test.
func runChurn(t *testing.T, cb churnBuild, seed int64, params *core.Params, inject func(c *core.Cluster, plane *fault.Plane, sel hostsel.Selector)) string {
	t.Helper()
	c, err := core.NewCluster(core.Options{Workstations: churnWorkstations, FileServers: 1, Seed: seed, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	sel, lease := cb.build(t, c)
	ledger := hostsel.NewClaimLedger(sel, c, lease)
	ledger.Register(c)
	plane := fault.NewPlane(c, seed^0x5eed)
	inject(c, plane, sel)

	warmup := time.Minute // hosts must be idle >1min to count available

	// The load-daemon stand-in: periodically push every host's availability
	// into the selector, tolerating hosts that are down mid-announcement.
	c.Boot("announce", func(env *sim.Env) error {
		if err := env.Sleep(warmup); err != nil {
			return err
		}
		for round := 0; round < 30; round++ {
			for _, k := range c.Workstations() {
				if c.HostDown(k.Host()) {
					continue
				}
				if err := sel.NotifyAvailability(env, k.Host(), k.Available(env.Now())); err != nil && !tolerableErr(err) {
					return err
				}
			}
			if err := env.Sleep(5 * time.Second); err != nil {
				return err
			}
		}
		return nil
	})

	if g, ok := sel.(*hostsel.Probabilistic); ok {
		c.Boot("gossipd", func(env *sim.Env) error {
			if err := env.Sleep(warmup); err != nil {
				return err
			}
			g.StartDaemons(env)
			if err := env.Sleep(150 * time.Second); err != nil {
				return err
			}
			g.Stop()
			return nil
		})
	}

	for i := 0; i < churnRequesters; i++ {
		i := i
		client := c.Workstation(i).Host()
		c.Boot(fmt.Sprintf("req%d", i), func(env *sim.Env) error {
			if err := env.Sleep(warmup + time.Duration(i)*300*time.Millisecond); err != nil {
				return err
			}
			for iter := 0; iter < 80; iter++ {
				hosts, err := ledger.RequestHosts(env, client, 2)
				if err != nil && !tolerableErr(err) {
					return fmt.Errorf("req%d iter %d: %w", i, iter, err)
				}
				if err := env.Sleep(500 * time.Millisecond); err != nil {
					return err
				}
				if len(hosts) > 0 {
					if err := ledger.Release(env, client, hosts); err != nil && !tolerableErr(err) {
						return fmt.Errorf("req%d iter %d release: %w", i, iter, err)
					}
				}
				if err := env.Sleep(200 * time.Millisecond); err != nil {
					return err
				}
			}
			return nil
		})
	}

	if err := c.Run(0); err != nil {
		t.Fatalf("%s: %v", cb.name, err)
	}
	if viol := c.CheckInvariants(true); len(viol) > 0 {
		for _, v := range viol {
			t.Errorf("%s: invariant: %s", cb.name, v)
		}
	}
	st := sel.Stats()
	digest := fmt.Sprintf("%s stats: req=%d granted=%d denied=%d conflicts=%d msgs=%d evictions=%d outstanding=%d\n",
		cb.name, st.Requests, st.Granted, st.Denied, st.Conflicts, st.Messages, st.Evictions, ledger.Outstanding())
	if g, ok := sel.(*hostsel.Probabilistic); ok {
		gs := g.Gossip()
		digest += fmt.Sprintf("gossip: rounds=%d sent=%d unreachable=%d entries=%d merged=%d bytes=%d hintsQ=%d hintsA=%d misplaced=%d staleEvicted=%d\n",
			gs.Rounds, gs.Sent, gs.Unreachable, gs.EntriesSent, gs.Merged, gs.Bytes, gs.HintsQueued, gs.HintsApplied, gs.Misplaced, gs.StaleEvicted)
		digest += g.ViewSnapshot()
	}
	return digest
}

// --- the three churn shapes ---

// rebootStorm power-cycles the fault hosts in two staggered waves.
func rebootStorm(c *core.Cluster, plane *fault.Plane, _ hostsel.Selector) {
	for i, h := range faultHosts(c) {
		plane.ScheduleReboot(h, 70*time.Second+time.Duration(i)*4*time.Second)
		plane.ScheduleReboot(h, 110*time.Second+time.Duration(i)*5*time.Second)
	}
}

// flapping drives the fault hosts through rapid availability transitions:
// simulated user input plus explicit availability retractions, then fresh
// announcements, without any host actually going down.
func flapping(c *core.Cluster, plane *fault.Plane, sel hostsel.Selector) {
	c.Boot("flapper", func(env *sim.Env) error {
		if err := env.Sleep(70 * time.Second); err != nil {
			return err
		}
		for round := 0; round < 20; round++ {
			for i := churnFaultBase; i < churnWorkstations; i++ {
				k := c.Workstation(i)
				if (round+i)%2 == 0 {
					k.NoteInput(env.Now()) // user touches the keyboard
					if err := sel.NotifyAvailability(env, k.Host(), false); err != nil && !tolerableErr(err) {
						return err
					}
				} else if err := sel.NotifyAvailability(env, k.Host(), true); err != nil && !tolerableErr(err) {
					return err
				}
			}
			if err := env.Sleep(4 * time.Second); err != nil {
				return err
			}
		}
		return nil
	})
}

// partitions isolates half the fault hosts in one window and the other half
// in a later one; requester and server hosts stay connected throughout.
func partitions(c *core.Cluster, plane *fault.Plane, _ hostsel.Selector) {
	hosts := faultHosts(c)
	half := len(hosts) / 2
	plane.Partition(70*time.Second, 100*time.Second, hosts[:half]...)
	plane.Partition(115*time.Second, 145*time.Second, hosts[half:]...)
}

func TestChurnRebootStormAllSelectors(t *testing.T) {
	for _, cb := range churnBuilds() {
		cb := cb
		t.Run(cb.name, func(t *testing.T) {
			digest := runChurn(t, cb, 42, nil, rebootStorm)
			if st := parseGranted(digest); st == 0 {
				t.Errorf("%s: no grants at all under reboot storm:\n%s", cb.name, digest)
			}
		})
	}
}

func TestChurnFlappingAllSelectors(t *testing.T) {
	for _, cb := range churnBuilds() {
		t.Run(cb.name, func(t *testing.T) {
			hostsel.EachShape(t, func(t *testing.T, params *core.Params) {
				digest := runChurn(t, cb, 43, params, flapping)
				if st := parseGranted(digest); st == 0 {
					t.Errorf("%s: no grants at all under flapping:\n%s", cb.name, digest)
				}
			})
		})
	}
}

func TestChurnPartitionAllSelectors(t *testing.T) {
	for _, cb := range churnBuilds() {
		t.Run(cb.name, func(t *testing.T) {
			hostsel.EachShape(t, func(t *testing.T, params *core.Params) {
				digest := runChurn(t, cb, 44, params, partitions)
				if st := parseGranted(digest); st == 0 {
					t.Errorf("%s: no grants at all under partitions:\n%s", cb.name, digest)
				}
			})
		})
	}
}

// parseGranted pulls the granted count back out of a digest line.
func parseGranted(digest string) int {
	var req, granted int
	var name string
	fmt.Sscanf(digest, "%s stats: req=%d granted=%d", &name, &req, &granted)
	return granted
}

// TestChurnDeterminism: the same seed must reproduce byte-identical
// gossip-view and selector-stats digests — the whole churn run, faults and
// all, is a pure function of the seed.
func TestChurnDeterminism(t *testing.T) {
	for _, name := range []string{"gossip", "central"} {
		var cb churnBuild
		for _, b := range churnBuilds() {
			if b.name == name {
				cb = b
			}
		}
		first := runChurn(t, cb, 42, nil, rebootStorm)
		second := runChurn(t, cb, 42, nil, rebootStorm)
		if first != second {
			t.Errorf("%s: same-seed churn runs diverged:\n--- run 1:\n%s\n--- run 2:\n%s", name, first, second)
		}
	}
}

// TestChurnGolden pins the full gossip digest for one churn scenario, so any
// change to the protocol's message pattern, decay schedule, or selection
// order shows up as a reviewed diff. Regenerate with -update.
func TestChurnGolden(t *testing.T) {
	var gossip churnBuild
	for _, b := range churnBuilds() {
		if b.name == "gossip" {
			gossip = b
		}
	}
	digest := runChurn(t, gossip, 42, nil, rebootStorm)
	path := filepath.Join("testdata", "churn_reboot_gossip.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(digest), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if digest != string(want) {
		t.Errorf("gossip churn digest diverged from golden:\n--- got:\n%s\n--- want:\n%s", digest, want)
	}
}

// TestRebootReleasesStaleClaim is the regression test for the claim-leak
// audit: a claim held on a host that crashes and reboots must be released by
// the epoch guard when the host comes back — not leaked until the end of
// time. Client A claims host H, H power-cycles, and client B must then be
// able to claim H; A's release of its dead grant is a harmless no-op.
func TestRebootReleasesStaleClaim(t *testing.T) {
	c, err := core.NewCluster(core.Options{Workstations: 3, FileServers: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	params := hostsel.DefaultProbabilisticParams()
	params.Fanout = 8 // full fanout: one announcement reaches every view
	sel := hostsel.NewProbabilistic(c, params)
	ledger := hostsel.NewClaimLedger(sel, c, params.ClaimLease)
	ledger.Register(c)
	a := c.Workstation(0).Host()
	target := c.Workstation(1).Host()
	b := c.Workstation(2).Host()
	c.Boot("boot", func(env *sim.Env) error {
		if err := env.Sleep(time.Minute); err != nil {
			return err
		}
		// Only the target announces: both clients' views hold exactly one
		// candidate, so grants are forced onto it.
		if err := sel.NotifyAvailability(env, target, true); err != nil {
			return err
		}
		got, err := ledger.RequestHosts(env, a, 1)
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != target {
			t.Fatalf("A's claim: got %v, want [%v]", got, target)
		}
		if oc := sel.OutstandingClaims(env.Now()); oc[target] != a {
			t.Fatalf("outstanding claims %v, want %v held by %v", oc, target, a)
		}

		// H power-cycles while A still holds it: the claim state recorded
		// under the old boot epoch is now stale.
		c.Reboot(env, target)
		if err := env.Sleep(time.Minute); err != nil { // H idles back to available
			return err
		}
		if err := sel.NotifyAvailability(env, target, true); err != nil {
			return err
		}

		// B's claim must succeed: the epoch guard releases the stale claim
		// rather than leaking it until the lease runs out.
		got, err = ledger.RequestHosts(env, b, 1)
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != target {
			t.Fatalf("B's claim after reboot: got %v, want [%v]", got, target)
		}
		if oc := sel.OutstandingClaims(env.Now()); oc[target] != b {
			t.Fatalf("outstanding claims %v, want %v held by %v", oc, target, b)
		}

		// A releasing its dead grant is a no-op, not an error, and must not
		// disturb B's live claim.
		if err := ledger.Release(env, a, []rpc.HostID{target}); err != nil {
			return err
		}
		if oc := sel.OutstandingClaims(env.Now()); oc[target] != b {
			t.Fatalf("after A's stale release: outstanding %v, want %v still held by %v", oc, target, b)
		}
		if err := ledger.Release(env, b, []rpc.HostID{target}); err != nil {
			return err
		}
		if oc := sel.OutstandingClaims(env.Now()); len(oc) != 0 {
			t.Fatalf("claims leaked at end: %v", oc)
		}
		return nil
	})
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if viol := c.CheckInvariants(true); len(viol) > 0 {
		t.Fatalf("invariants: %v", viol)
	}
}
