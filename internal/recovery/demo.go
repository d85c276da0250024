package recovery

import (
	"fmt"
	"strings"
	"time"

	"sprite/internal/core"
	"sprite/internal/metrics"
	"sprite/internal/rpc"
	"sprite/internal/sim"
	"sprite/internal/trace"
)

// DemoResult is what RunDemoWith hands back: enough to print a report,
// assert determinism, or write a metrics artifact.
type DemoResult struct {
	// Snapshot is the cluster metrics at the end of the run (recovery.*
	// counters and latency quantiles included).
	Snapshot metrics.Snapshot
	// Completed and Restarts count supervised jobs that finished and the
	// restarts it took.
	Completed int
	Restarts  int
	// Lost names jobs the supervisor gave up on (empty on a healthy run).
	Lost []string
	// Events is the liveness event stream (trace.HostDown, trace.HostUp),
	// in order.
	Events []trace.Event
	// Violations is CheckInvariants(true) at the end of the run.
	Violations []string
}

// Digest renders the result's deterministic one-line summary (used by
// tests asserting same-seed reproducibility).
func (r DemoResult) Digest() string {
	evs := ""
	for _, ev := range r.Events {
		evs += fmt.Sprintf("[%v %v e%d]", ev.Kind, rpc.HostID(ev.Host), ev.Epoch)
	}
	return fmt.Sprintf("completed=%d restarts=%d lost=%d events=%s violations=%d",
		r.Completed, r.Restarts, len(r.Lost), evs, len(r.Violations))
}

// CrashSpec schedules one host fault for RunDemoWith: the named host dies
// at At and restarts Dur later. Dur == 0 means an instantaneous reboot —
// state lost and epoch bumped, but no down-time window for timeout
// detection to observe.
type CrashSpec struct {
	Host string // "ws<N>" (workstation index) or "fs<N>" (file server index)
	At   time.Duration
	Dur  time.Duration
}

func (s CrashSpec) String() string {
	if s.Dur == 0 {
		return fmt.Sprintf("%s@%v", s.Host, s.At)
	}
	return fmt.Sprintf("%s@%v+%v", s.Host, s.At, s.Dur)
}

// ParseCrashSpec parses the spritesim -crash syntax host@at[+dur], e.g.
// "ws1@250ms+200ms" (crash, restart 200 ms later) or "ws2@300ms"
// (instant reboot).
func ParseCrashSpec(s string) (CrashSpec, error) {
	host, rest, ok := strings.Cut(s, "@")
	if !ok || host == "" || rest == "" {
		return CrashSpec{}, fmt.Errorf("crash spec %q: want host@at[+dur]", s)
	}
	atStr, durStr, hasDur := strings.Cut(rest, "+")
	at, err := time.ParseDuration(atStr)
	if err != nil {
		return CrashSpec{}, fmt.Errorf("crash spec %q: bad crash time: %v", s, err)
	}
	sp := CrashSpec{Host: host, At: at}
	if hasDur {
		d, err := time.ParseDuration(durStr)
		if err != nil {
			return CrashSpec{}, fmt.Errorf("crash spec %q: bad down duration: %v", s, err)
		}
		sp.Dur = d
	}
	return sp, nil
}

// resolveHost maps a CrashSpec host name onto the demo cluster's layout
// (file servers occupy the low host IDs, workstations follow).
func resolveHost(c *core.Cluster, name string) (rpc.HostID, error) {
	var idx int
	switch {
	case strings.HasPrefix(name, "ws"):
		if _, err := fmt.Sscanf(name, "ws%d", &idx); err != nil || idx < 0 || idx >= len(c.Workstations()) {
			return rpc.NoHost, fmt.Errorf("no workstation %q (have ws0..ws%d)", name, len(c.Workstations())-1)
		}
		return c.Workstation(idx).Host(), nil
	case strings.HasPrefix(name, "fs"):
		nfs := int(c.Workstation(0).Host()) - 1 // workstation IDs start after the file servers
		if _, err := fmt.Sscanf(name, "fs%d", &idx); err != nil || idx < 0 || idx >= nfs {
			return rpc.NoHost, fmt.Errorf("no file server %q (have fs0..fs%d)", name, nfs-1)
		}
		return rpc.HostID(1 + idx), nil
	}
	return rpc.NoHost, fmt.Errorf("bad host %q: want ws<N> or fs<N>", name)
}

// RunDemoWith runs the canonical crash-recovery scenario on c, a fresh
// cluster of four workstations and a file server with /bin/job seeded: a
// liveness monitor with reaping on, a supervisor running three
// checkpointed compute jobs on a remote host — and a fault schedule
// against it. Every job must run to completion, restarted from its
// checkpoint on a surviving host. It backs the spritesim "recovery"
// experiment and its -crash flags.
//
// An empty schedule falls back to the canonical one: the jobs' target host
// crashing at 250 ms, staying dead long enough for timeout detection, and
// restarting 200 ms later under a new epoch.
func RunDemoWith(c *core.Cluster, crashes []CrashSpec) (DemoResult, error) {
	mon := NewMonitor(c, DefaultParams())
	sup := NewSupervisor(c, mon, DefaultSupervisorParams())
	mon.Start()

	var res DemoResult
	mon.Subscribe(func(ev trace.Event) { res.Events = append(res.Events, ev) })

	cfg := core.ProcConfig{Binary: "/bin/job", CodePages: 16, HeapPages: 32, StackPages: 4}
	if len(crashes) == 0 {
		// ws1 is the supervisor's first pick for every job's target. Late
		// enough that all three jobs have arrived there and checkpointed at
		// least once; early enough that none has finished.
		crashes = []CrashSpec{{Host: "ws1", At: 250 * time.Millisecond, Dur: 200 * time.Millisecond}}
	}
	for _, sp := range crashes {
		victim, err := resolveHost(c, sp.Host)
		if err != nil {
			return DemoResult{}, err
		}
		sp := sp
		c.Boot("demo-crash-"+sp.Host, func(env *sim.Env) error {
			if err := env.Sleep(sp.At); err != nil {
				return nil
			}
			if sp.Dur == 0 {
				c.Reboot(env, victim)
				return nil
			}
			c.CrashHost(env, victim)
			if err := env.Sleep(sp.Dur); err != nil {
				return nil
			}
			c.RestartHost(env, victim)
			return nil
		})
	}

	c.Boot("demo-driver", func(env *sim.Env) error {
		for i := 0; i < 3; i++ {
			if _, err := sup.Submit(env, fmt.Sprintf("job%d", i), cfg, ComputeJob(250*time.Millisecond, 25*time.Millisecond)); err != nil {
				return err
			}
		}
		if err := sup.Wait(env); err != nil {
			return err
		}
		// All jobs resolved: release the monitor so the simulation drains.
		mon.Stop()
		sup.Stop()
		return nil
	})
	if err := c.Run(30 * time.Second); err != nil {
		return DemoResult{}, err
	}
	for _, j := range sup.jobs {
		if j.done.Done() && !j.lost {
			res.Completed++
		}
		res.Restarts += j.restarts
	}
	res.Lost = sup.Lost()
	res.Violations = c.CheckInvariants(true)
	res.Snapshot = c.MetricsSnapshot()
	return res, nil
}
