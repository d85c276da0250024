// Load sharing in daily use: a day of simulated users comes and goes on a
// 16-workstation cluster while a batch of independent simulation jobs
// soaks up whatever is idle, getting evicted and re-placed as owners
// return — the thesis's production scenario in miniature.
package main

import (
	"fmt"
	"log"
	"time"

	"sprite"
	"sprite/internal/hostsel"
	"sprite/internal/sim"
	"sprite/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cluster, err := sprite.NewCluster(sprite.Options{Workstations: 16, FileServers: 1, Seed: 9})
	if err != nil {
		return err
	}
	if err := cluster.SeedBinary("/bin/sim", 256<<10); err != nil {
		return err
	}
	migd := hostsel.NewCentral(cluster, sprite.HostID(1), hostsel.DefaultCentralParams())
	users := workload.NewUserPool(cluster, workload.DefaultDayProfile(), migd.NotifyAvailability)
	submit := cluster.Workstation(0)

	const jobs = 24
	jobCPU := 2 * time.Minute

	cluster.Boot("boot", func(env *sim.Env) error {
		users.Start(env)
		if err := env.Sleep(10 * time.Hour); err != nil { // mid-morning
			return err
		}
		fmt.Printf("[%8v] submitting %d simulation jobs (%v CPU each)\n", env.Now(), jobs, jobCPU)
		t0 := env.Now()
		done := sim.NewWaitGroup()
		done.Add(jobs)
		evictions := 0
		launched := 0
		for launched < jobs {
			hosts, err := migd.RequestHosts(env, submit.Host(), jobs-launched)
			if err != nil {
				return err
			}
			if len(hosts) == 0 {
				if err := env.Sleep(30 * time.Second); err != nil {
					return err
				}
				continue
			}
			for _, h := range hosts {
				target := cluster.KernelOn(h)
				p, err := submit.StartProcess(env, fmt.Sprintf("sim%d", launched),
					func(ctx *sprite.Ctx) error {
						return ctx.Exec("sim", func(cc *sprite.Ctx) error {
							if err := cc.TouchHeap(0, 128, true); err != nil {
								return err
							}
							return cc.Compute(jobCPU)
						}, sprite.ProcConfig{Binary: "/bin/sim", CodePages: 8, HeapPages: 128, StackPages: 2})
					}, sprite.ProcConfig{})
				if err != nil {
					return err
				}
				submit.RequestExecMigration(p, target, "load-sharing")
				host := h
				env.Spawn("join", func(jenv *sim.Env) error {
					defer done.Done()
					if _, err := p.Exited().Wait(jenv); err != nil {
						return err
					}
					if p.Migrations() > 1 {
						evictions++ // moved again after placement
					}
					return migd.Release(jenv, submit.Host(), []sprite.HostID{host})
				})
				launched++
			}
		}
		if err := done.Wait(env); err != nil {
			return err
		}
		fmt.Printf("[%8v] all %d jobs done in %v (%.0f%% effective utilization)\n",
			env.Now(), jobs, (env.Now() - t0).Round(time.Second),
			float64(jobs)*jobCPU.Seconds()/(env.Now()-t0).Seconds()*100)
		users.Stop()
		return nil
	})
	if err := cluster.Run(14 * time.Hour); err != nil {
		return err
	}
	cluster.Stop()
	if err := cluster.Run(0); err != nil {
		return err
	}
	total, evict := 0, 0
	for _, rec := range cluster.MigrationRecords() {
		total++
		if rec.Reason == "eviction" {
			evict++
		}
	}
	fmt.Printf("migrations: %d total, %d evictions; migd stats: %+v\n", total, evict, migd.Stats())
	return nil
}
