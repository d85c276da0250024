package core

import (
	"errors"
	"testing"
	"time"

	"sprite/internal/fs"
	"sprite/internal/sim"
)

// These tests pin down pipe end-of-stream semantics under migration and
// fail-stop faults: a blocked reader must see data (not a spurious EOF)
// when its peer merely migrates, EOF exactly once when the last writer
// dies, and a blocked writer must see EPIPE when the last reader dies.

// TestPipeNoSpuriousEOFWhenWriterMigratesMidBlockingRead: the reader blocks
// on an empty pipe while the writer migrates twice; the migration must not
// look like a writer disappearing (which would deliver EOF to the blocked
// reader). The reader sees the data, then exactly one clean EOF.
func TestPipeNoSpuriousEOFWhenWriterMigratesMidBlockingRead(t *testing.T) {
	c := newCluster(t, 3)
	h0, h1, h2 := c.Workstation(0), c.Workstation(1), c.Workstation(2)
	var received string
	var reads []int
	c.Boot("boot", func(env *sim.Env) error {
		parent, err := h0.StartProcess(env, "pair", func(ctx *Ctx) error {
			rfd, wfd, err := ctx.Pipe()
			if err != nil {
				return err
			}
			if _, err := ctx.Fork("producer", func(cc *Ctx) error {
				if err := cc.Close(rfd); err != nil {
					return err
				}
				// Give the consumer time to block on the empty pipe, then
				// migrate with it still blocked.
				if err := cc.Compute(50 * time.Millisecond); err != nil {
					return err
				}
				if err := cc.Migrate(h1.Host()); err != nil {
					return err
				}
				if _, err := cc.Write(wfd, []byte("payload")); err != nil {
					return err
				}
				if err := cc.Migrate(h2.Host()); err != nil {
					return err
				}
				return cc.Close(wfd)
			}, smallProc); err != nil {
				return err
			}
			if _, err := ctx.Fork("consumer", func(cc *Ctx) error {
				if err := cc.Close(wfd); err != nil {
					return err
				}
				var got []byte
				for {
					data, err := cc.Read(rfd, 64)
					if err != nil {
						return err
					}
					reads = append(reads, len(data))
					if len(data) == 0 {
						break
					}
					got = append(got, data...)
				}
				received = string(got)
				return cc.Close(rfd)
			}, smallProc); err != nil {
				return err
			}
			if err := ctx.Close(rfd); err != nil {
				return err
			}
			if err := ctx.Close(wfd); err != nil {
				return err
			}
			if _, _, err := ctx.Wait(); err != nil {
				return err
			}
			_, _, err = ctx.Wait()
			return err
		}, smallProc)
		if err != nil {
			return err
		}
		_, err = parent.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if received != "payload" {
		t.Fatalf("received %q, want %q", received, "payload")
	}
	// First read must carry data (no spurious EOF while the writer was in
	// transit), and the only empty read is the final EOF.
	if len(reads) < 2 || reads[0] == 0 || reads[len(reads)-1] != 0 {
		t.Fatalf("read sizes = %v, want data then exactly one trailing EOF", reads)
	}
	if v := c.CheckInvariants(true); len(v) != 0 {
		t.Errorf("invariants violated: %v", v)
	}
}

// TestPipeEOFWhenWriterHostCrashes: the writer migrates away and its new
// host fail-stops while the reader is blocked mid-read. Scrubbing the
// crashed host's pipe ends must wake the reader with EOF, not hang it.
func TestPipeEOFWhenWriterHostCrashes(t *testing.T) {
	c := newCluster(t, 2)
	h0, h1 := c.Workstation(0), c.Workstation(1)
	moved := sim.NewFuture()
	var received string
	c.Boot("boot", func(env *sim.Env) error {
		parent, err := h0.StartProcess(env, "pair", func(ctx *Ctx) error {
			rfd, wfd, err := ctx.Pipe()
			if err != nil {
				return err
			}
			if _, err := ctx.Fork("producer", func(cc *Ctx) error {
				if err := cc.Close(rfd); err != nil {
					return err
				}
				if err := cc.Migrate(h1.Host()); err != nil {
					return err
				}
				if _, err := cc.Write(wfd, []byte("last words")); err != nil {
					return err
				}
				moved.Complete(cc.Env(), nil, nil)
				// Never closes wfd: only the host crash can deliver EOF.
				return cc.Compute(10 * time.Second)
			}, smallProc); err != nil {
				return err
			}
			if _, err := ctx.Fork("consumer", func(cc *Ctx) error {
				if err := cc.Close(wfd); err != nil {
					return err
				}
				var got []byte
				for {
					data, err := cc.Read(rfd, 64)
					if err != nil {
						return err
					}
					if len(data) == 0 {
						break
					}
					got = append(got, data...)
				}
				received = string(got)
				return cc.Close(rfd)
			}, smallProc); err != nil {
				return err
			}
			if err := ctx.Close(rfd); err != nil {
				return err
			}
			if err := ctx.Close(wfd); err != nil {
				return err
			}
			// Both children: the producer dies in the crash (status -2),
			// the consumer exits cleanly after EOF.
			if _, _, err := ctx.Wait(); err != nil {
				return err
			}
			_, _, err = ctx.Wait()
			return err
		}, smallProc)
		if err != nil {
			return err
		}
		if _, err := moved.Wait(env); err != nil {
			return err
		}
		// Let the consumer drain the chunk and block on the empty pipe.
		if err := env.Sleep(200 * time.Millisecond); err != nil {
			return err
		}
		c.CrashHost(env, h1.Host())
		c.ReapDeadHost(env, h1.Host(), c.HostEpoch(h1.Host()))
		_, err = parent.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if received != "last words" {
		t.Fatalf("received %q, want %q", received, "last words")
	}
	if v := c.CheckInvariants(true); len(v) != 0 {
		t.Errorf("invariants violated: %v", v)
	}
}

// TestPipeEPIPEWhenReaderHostCrashes: the reader migrates away and its new
// host fail-stops while the writer is blocked on a full pipe. The writer
// must be woken with EPIPE (ErrBadStream), exactly as if the last reader
// had closed.
func TestPipeEPIPEWhenReaderHostCrashes(t *testing.T) {
	c := newCluster(t, 2)
	h0, h1 := c.Workstation(0), c.Workstation(1)
	moved := sim.NewFuture()
	var writeErr error
	c.Boot("boot", func(env *sim.Env) error {
		parent, err := h0.StartProcess(env, "pair", func(ctx *Ctx) error {
			rfd, wfd, err := ctx.Pipe()
			if err != nil {
				return err
			}
			if _, err := ctx.Fork("consumer", func(cc *Ctx) error {
				if err := cc.Close(wfd); err != nil {
					return err
				}
				if err := cc.Migrate(h1.Host()); err != nil {
					return err
				}
				if _, err := cc.Read(rfd, 64); err != nil {
					return err
				}
				moved.Complete(cc.Env(), nil, nil)
				// Never reads again: the pipe fills and the writer blocks.
				return cc.Compute(10 * time.Second)
			}, smallProc); err != nil {
				return err
			}
			if _, err := ctx.Fork("producer", func(cc *Ctx) error {
				if err := cc.Close(rfd); err != nil {
					return err
				}
				chunk := make([]byte, 4096)
				for {
					if _, err := cc.Write(wfd, chunk); err != nil {
						writeErr = err
						break
					}
				}
				return cc.Close(wfd)
			}, smallProc); err != nil {
				return err
			}
			if err := ctx.Close(rfd); err != nil {
				return err
			}
			if err := ctx.Close(wfd); err != nil {
				return err
			}
			if _, _, err := ctx.Wait(); err != nil {
				return err
			}
			_, _, err = ctx.Wait()
			return err
		}, smallProc)
		if err != nil {
			return err
		}
		if _, err := moved.Wait(env); err != nil {
			return err
		}
		// Let the pipe fill and the producer block in write.
		if err := env.Sleep(500 * time.Millisecond); err != nil {
			return err
		}
		c.CrashHost(env, h1.Host())
		c.ReapDeadHost(env, h1.Host(), c.HostEpoch(h1.Host()))
		_, err = parent.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	if !errors.Is(writeErr, fs.ErrBadStream) {
		t.Fatalf("write err = %v, want ErrBadStream (EPIPE)", writeErr)
	}
	if v := c.CheckInvariants(true); len(v) != 0 {
		t.Errorf("invariants violated: %v", v)
	}
}
