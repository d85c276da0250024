// Package fault is the deterministic fault-injection plane for the simulated
// Sprite cluster: host crashes and restarts, message drops and delays,
// network partitions, and named mid-migration failure points.
//
// All injection decisions are pure functions of the installed schedule and a
// private random stream seeded at construction, so a faulty run is replayable
// bit for bit from its seed. With no Plane installed, every hook in the
// simulator is inert and default runs stay golden.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"sprite/internal/core"
	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// ErrInjected is the error delivered by a triggered migration failpoint.
var ErrInjected = errors.New("fault: injected migration failure")

// msgRule is one time window of message perturbation, optionally restricted
// to traffic touching a host set.
type msgRule struct {
	from, until time.Duration
	prob        float64
	delay       time.Duration       // 0 for drop rules
	hosts       map[rpc.HostID]bool // nil matches all traffic
}

func (r *msgRule) matches(now time.Duration, from, to rpc.HostID) bool {
	if now < r.from || now >= r.until {
		return false
	}
	if r.hosts == nil {
		return true
	}
	return r.hosts[from] || r.hosts[to]
}

// partition is one time window during which a host group is cut off from the
// rest of the network (messages between sides are dropped deterministically).
type partition struct {
	from, until time.Duration
	group       map[rpc.HostID]bool
}

// migFail arms a migration failpoint within a time window.
type migFail struct {
	point       core.Failpoint
	pid         core.PID // zero value matches any process
	from, until time.Duration
	prob        float64
	remaining   int // -1 = unlimited within the window
}

// Plane wires fault injection into one cluster. Construct with NewPlane;
// schedule faults before or during the run; every decision point draws from
// the Plane's private random stream, never the simulation's, so fault
// randomness does not perturb workload randomness.
type Plane struct {
	cluster *core.Cluster
	rng     *rand.Rand

	drops    []*msgRule
	delays   []*msgRule
	parts    []*partition
	migFails []*migFail

	// Injected counts verdicts that perturbed a message.
	injected uint64
}

var _ rpc.Injector = (*Plane)(nil)

// NewPlane installs a fault plane on the cluster: the RPC injector and the
// migration failpoint hook. The seed drives only injection decisions.
func NewPlane(c *core.Cluster, seed int64) *Plane {
	p := &Plane{cluster: c, rng: rand.New(rand.NewSource(seed))}
	c.Transport().SetInjector(p)
	c.SetFailpoint(p.failpoint)
	return p
}

// Detach removes the plane's hooks, returning the cluster to fault-free
// operation.
func (p *Plane) Detach() {
	p.cluster.Transport().SetInjector(nil)
	p.cluster.SetFailpoint(nil)
}

// Injected returns how many message verdicts perturbed traffic so far.
func (p *Plane) Injected() uint64 { return p.injected }

// --- schedule construction ---

func hostSet(hosts []rpc.HostID) map[rpc.HostID]bool {
	if len(hosts) == 0 {
		return nil
	}
	m := make(map[rpc.HostID]bool, len(hosts))
	for _, h := range hosts {
		m[h] = true
	}
	return m
}

// DropMessages drops each message touching one of hosts (all traffic if none
// given) with probability prob during [from, until). A dropped request makes
// the server miss the call; a dropped reply makes the server execute it and
// the client retry into duplicate suppression — both sides of Sprite RPC's
// at-most-once machinery.
func (p *Plane) DropMessages(from, until time.Duration, prob float64, hosts ...rpc.HostID) {
	p.drops = append(p.drops, &msgRule{from: from, until: until, prob: prob, hosts: hostSet(hosts)})
}

// DelayMessages adds d of one-way latency with probability prob during
// [from, until), modeling congestion rather than loss.
func (p *Plane) DelayMessages(from, until time.Duration, d time.Duration, prob float64, hosts ...rpc.HostID) {
	p.delays = append(p.delays, &msgRule{from: from, until: until, prob: prob, delay: d, hosts: hostSet(hosts)})
}

// Partition cuts group off from every other host during [from, until):
// messages crossing the cut are dropped deterministically. Hosts inside the
// group still talk to each other.
func (p *Plane) Partition(from, until time.Duration, group ...rpc.HostID) {
	p.parts = append(p.parts, &partition{from: from, until: until, group: hostSet(group)})
}

// FailMigration arms a migration failpoint (core.FailMigInit, FailMigVM,
// FailMigStreams, FailMigPCB) for a process (zero PID matches any) during
// [from, until), firing with probability prob at most `times` times
// (times < 0 = unlimited). The aborted migration exercises the kernel's
// abort-recovery path: the process must resume intact on the source.
func (p *Plane) FailMigration(point core.Failpoint, pid core.PID, from, until time.Duration, prob float64, times int) {
	p.migFails = append(p.migFails, &migFail{
		point: point, pid: pid, from: from, until: until, prob: prob, remaining: times,
	})
}

// ScheduleReboot spawns an activity that reboots host at `at` (see
// core.Cluster.Reboot: the old incarnation's state is lost but the machine
// answers pings again immediately, under a bumped epoch). Call before the
// cluster runs.
func (p *Plane) ScheduleReboot(host rpc.HostID, at time.Duration) {
	p.cluster.Boot(fmt.Sprintf("fault-reboot-%v", host), func(env *sim.Env) error {
		if err := env.Sleep(at); err != nil {
			return err
		}
		p.cluster.Reboot(env, host)
		return nil
	})
}

// ScheduleCrash spawns an activity that crashes host at `at` and, when dur >
// 0, restarts it dur later (see core.Cluster.CrashHost and RestartHost).
// Call before the cluster runs.
func (p *Plane) ScheduleCrash(host rpc.HostID, at, dur time.Duration) {
	p.cluster.Boot(fmt.Sprintf("fault-crash-%v", host), func(env *sim.Env) error {
		if err := env.Sleep(at); err != nil {
			return err
		}
		p.cluster.CrashHost(env, host)
		if dur > 0 {
			if err := env.Sleep(dur); err != nil {
				return err
			}
			p.cluster.RestartHost(env, host)
		}
		return nil
	})
}

// --- hook implementations ---

// Intercept implements rpc.Injector: it decides the fate of one call attempt
// from the installed schedule and the private random stream.
func (p *Plane) Intercept(env *sim.Env, from, to rpc.HostID, service string, attempt int) rpc.Verdict {
	now := env.Now()
	var v rpc.Verdict
	for _, pt := range p.parts {
		if now >= pt.from && now < pt.until && pt.group[from] != pt.group[to] {
			v.DropRequest = true
			p.injected++
			return v
		}
	}
	for _, r := range p.drops {
		if !r.matches(now, from, to) || p.rng.Float64() >= r.prob {
			continue
		}
		if p.rng.Intn(2) == 0 {
			v.DropRequest = true
		} else {
			v.DropReply = true
		}
		p.injected++
	}
	for _, r := range p.delays {
		if r.matches(now, from, to) && p.rng.Float64() < r.prob {
			v.Delay += r.delay
			p.injected++
		}
	}
	return v
}

// failpoint implements core.FailpointFunc.
func (p *Plane) failpoint(env *sim.Env, fp core.Failpoint, pid core.PID) error {
	now := env.Now()
	for _, f := range p.migFails {
		if f.point != fp || f.remaining == 0 {
			continue
		}
		if now < f.from || now >= f.until {
			continue
		}
		if (f.pid != core.PID{}) && f.pid != pid {
			continue
		}
		if f.prob < 1 && p.rng.Float64() >= f.prob {
			continue
		}
		if f.remaining > 0 {
			f.remaining--
		}
		return fmt.Errorf("%w: %v for %v at %v", ErrInjected, fp, pid, now)
	}
	return nil
}
