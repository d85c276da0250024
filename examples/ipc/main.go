// IPC transparency: a producer and consumer connected by a pipe keep
// talking while both migrate, and a pseudo-device name service keeps
// answering while *it* migrates — nobody notices anything but latency
// (thesis §3.2: only the operating system knows where anyone is).
package main

import (
	"fmt"
	"log"

	"sprite"
	"sprite/internal/pdev"
	"sprite/internal/sim"
	"sprite/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cluster, err := sprite.NewCluster(sprite.Options{Workstations: 4, FileServers: 1, Seed: 11})
	if err != nil {
		return err
	}
	if err := cluster.SeedBinary("/bin/prog", 128<<10); err != nil {
		return err
	}
	events := trace.New(64)
	cluster.SetTrace(func(ev trace.Event) {
		if ev.Kind == trace.Migration || ev.Kind == trace.ExecMigration {
			events.Append(ev)
		}
	})
	pdevs := pdev.NewSystem(cluster)
	h := cluster.Workstations()
	cfg := sprite.ProcConfig{Binary: "/bin/prog", CodePages: 4, HeapPages: 16, StackPages: 2}

	cluster.Boot("boot", func(env *sim.Env) error {
		// A pseudo-device "name service" that migrates mid-life.
		nameServer, err := h[0].StartProcess(env, "named", func(ctx *sprite.Ctx) error {
			dev, err := pdevs.Serve(ctx, "/dev/named")
			if err != nil {
				return err
			}
			defer dev.Close()
			for i := 0; i < 4; i++ {
				req, err := dev.Recv(ctx)
				if err != nil {
					return err
				}
				where := ctx.Process().Current().Host()
				if err := dev.Reply(ctx, req, []byte(fmt.Sprintf("%s@%v", req.Data, where))); err != nil {
					return err
				}
				if i == 1 { // move the service mid-stream
					if err := ctx.Migrate(h[3].Host()); err != nil {
						return err
					}
				}
			}
			return nil
		}, cfg)
		if err != nil {
			return err
		}

		// A producer/consumer pair over a pipe, both migrating.
		pair, err := h[1].StartProcess(env, "pair", func(ctx *sprite.Ctx) error {
			rfd, wfd, err := ctx.Pipe()
			if err != nil {
				return err
			}
			if _, err := ctx.Fork("producer", func(cc *sprite.Ctx) error {
				if err := cc.Close(rfd); err != nil {
					return err
				}
				for i := 1; i <= 4; i++ {
					reply, err := pdevs.Call(cc, "/dev/named", []byte(fmt.Sprintf("msg%d", i)))
					if err != nil {
						return err
					}
					if _, err := cc.Write(wfd, append(reply, '\n')); err != nil {
						return err
					}
					if i == 2 {
						if err := cc.Migrate(h[2].Host()); err != nil {
							return err
						}
					}
				}
				return cc.Close(wfd)
			}, cfg); err != nil {
				return err
			}
			if _, err := ctx.Fork("consumer", func(cc *sprite.Ctx) error {
				if err := cc.Close(wfd); err != nil {
					return err
				}
				var got []byte
				for {
					data, err := cc.Read(rfd, 128)
					if err != nil {
						return err
					}
					if len(data) == 0 {
						break
					}
					got = append(got, data...)
					if len(got) > 0 && got[len(got)-1] == '\n' && cc.Process().Migrations() == 0 {
						if err := cc.Migrate(h[3].Host()); err != nil {
							return err
						}
					}
				}
				fmt.Printf("[%8v] consumer (on %v) received:\n%s",
					cc.Now(), cc.Process().Current().Host(), got)
				return cc.Close(rfd)
			}, cfg); err != nil {
				return err
			}
			if err := ctx.Close(rfd); err != nil {
				return err
			}
			if err := ctx.Close(wfd); err != nil {
				return err
			}
			for i := 0; i < 2; i++ {
				if _, _, err := ctx.Wait(); err != nil {
					return err
				}
			}
			return nil
		}, cfg)
		if err != nil {
			return err
		}
		if _, err := pair.Exited().Wait(env); err != nil {
			return err
		}
		_, err = nameServer.Exited().Wait(env)
		return err
	})
	if err := cluster.Run(0); err != nil {
		return err
	}
	fmt.Printf("\nmigrations while communicating (trace):\n%s", events)
	fmt.Println("note: replies show where the *server* ran; the clients' pipe never broke.")
	return nil
}
