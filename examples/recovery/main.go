// Recovery: three checkpointed jobs are farmed out to an idle workstation;
// that workstation fail-stops mid-run. The liveness monitor detects the
// crash by missed pings, homes reap their orphans (Sprite's home-dependency
// rule), and the supervisor restarts each job from its last durable
// checkpoint on a surviving host — so all three finish despite the crash.
package main

import (
	"fmt"
	"log"
	"time"

	"sprite"
	"sprite/internal/recovery"
	"sprite/internal/sim"
	"sprite/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cluster, err := sprite.NewCluster(sprite.Options{Workstations: 4, FileServers: 1, Seed: 42})
	if err != nil {
		return err
	}
	if err := cluster.SeedBinary("/bin/job", 128<<10); err != nil {
		return err
	}

	mon := recovery.NewMonitor(cluster, recovery.DefaultParams())
	sup := recovery.NewSupervisor(cluster, mon, recovery.DefaultSupervisorParams())
	mon.Start()
	mon.Subscribe(func(ev trace.Event) {
		fmt.Printf("[%8v] monitor: %v %v (epoch %d)\n", ev.At, ev.Kind, sprite.HostID(ev.Host), ev.Epoch)
	})

	cfg := sprite.ProcConfig{Binary: "/bin/job", CodePages: 16, HeapPages: 32, StackPages: 4}
	victim := cluster.Workstation(1).Host()

	cluster.Boot("driver", func(env *sim.Env) error {
		var handles []*recovery.Handle
		for i := 0; i < 3; i++ {
			h, err := sup.Submit(env, fmt.Sprintf("job%d", i), cfg,
				recovery.ComputeJob(250*time.Millisecond, 25*time.Millisecond))
			if err != nil {
				return err
			}
			handles = append(handles, h)
		}
		fmt.Printf("[%8v] submitted 3 checkpointed jobs (they migrate to %v)\n", env.Now(), victim)
		if err := sup.Wait(env); err != nil {
			return err
		}
		for _, h := range handles {
			fmt.Printf("[%8v] %s done: restarts=%d resumed=%v of checkpointed work\n",
				env.Now(), h.Name(), h.Restarts(), time.Duration(h.Resumed().CPUUsedNanos))
		}
		mon.Stop()
		sup.Stop()
		return nil
	})
	cluster.Boot("saboteur", func(env *sim.Env) error {
		if err := env.Sleep(250 * time.Millisecond); err != nil {
			return nil
		}
		fmt.Printf("[%8v] %v fail-stops with all three jobs on it\n", env.Now(), victim)
		cluster.CrashHost(env, victim)
		if err := env.Sleep(200 * time.Millisecond); err != nil {
			return nil
		}
		cluster.RestartHost(env, victim)
		fmt.Printf("[%8v] %v reboots with empty tables under a new epoch\n", env.Now(), victim)
		return nil
	})
	if err := cluster.Run(0); err != nil {
		return err
	}

	if v := cluster.CheckInvariants(true); len(v) != 0 {
		return fmt.Errorf("invariants violated after the crash: %v", v)
	}
	snap := cluster.MetricsSnapshot()
	fmt.Printf("\ncheckpoints=%d restarts=%d cpu-recovered=%v; invariants green\n",
		snap.Counters["recovery.checkpoints"],
		snap.Counters["recovery.restarts"],
		time.Duration(snap.Counters["recovery.cpu_recovered_ns"]))
	return nil
}
