package fs

import (
	"errors"
	"testing"
	"time"

	"sprite/internal/sim"
)

func TestPipeBasicTransfer(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.fs.Client(2), h.fs.Client(3)
	h.sim.Spawn("writer-reader", func(env *sim.Env) error {
		r, w, err := a.CreatePipe(env)
		if err != nil {
			return err
		}
		// Hand the read end to host 3.
		if err := a.MoveStream(env, r, 3); err != nil {
			return err
		}
		done := sim.NewWaitGroup()
		done.Add(2)
		env.Spawn("writer", func(we *sim.Env) error {
			defer done.Done()
			if _, err := a.Write(we, w, []byte("hello ")); err != nil {
				return err
			}
			if _, err := a.Write(we, w, []byte("pipe")); err != nil {
				return err
			}
			return a.Close(we, w)
		})
		var got []byte
		env.Spawn("reader", func(re *sim.Env) error {
			defer done.Done()
			for {
				data, err := b.Read(re, r, 64)
				if err != nil {
					return err
				}
				if len(data) == 0 {
					break // EOF
				}
				got = append(got, data...)
			}
			return b.Close(re, r)
		})
		if err := done.Wait(env); err != nil {
			return err
		}
		if string(got) != "hello pipe" {
			t.Errorf("got %q", got)
		}
		return nil
	})
	if err := h.sim.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestPipeBlocksWhenEmptyAndFull(t *testing.T) {
	h := newHarness(t, 2)
	a := h.fs.Client(2)
	h.sim.Spawn("t", func(env *sim.Env) error {
		r, w, err := a.CreatePipe(env)
		if err != nil {
			return err
		}
		var readAt time.Duration
		done := sim.NewWaitGroup()
		done.Add(1)
		env.Spawn("reader", func(re *sim.Env) error {
			defer done.Done()
			data, err := a.Read(re, r, 4)
			if err != nil {
				return err
			}
			if string(data) != "late" {
				t.Errorf("read %q", data)
			}
			readAt = re.Now()
			return nil
		})
		if err := env.Sleep(2 * time.Second); err != nil {
			return err
		}
		if _, err := a.Write(env, w, []byte("late")); err != nil {
			return err
		}
		if err := done.Wait(env); err != nil {
			return err
		}
		if readAt < 2*time.Second {
			t.Errorf("read completed at %v, want blocked until 2s", readAt)
		}
		// Fill to capacity: the next write must block until a read drains.
		big := make([]byte, pipeDefaultCapacity)
		if _, err := a.Write(env, w, big); err != nil {
			return err
		}
		var wroteAt time.Duration
		done2 := sim.NewWaitGroup()
		done2.Add(1)
		env.Spawn("blocked-writer", func(we *sim.Env) error {
			defer done2.Done()
			if _, err := a.Write(we, w, []byte("x")); err != nil {
				return err
			}
			wroteAt = we.Now()
			return nil
		})
		drainTime := env.Now() + time.Second
		if err := env.Sleep(time.Second); err != nil {
			return err
		}
		if _, err := a.Read(env, r, 1024); err != nil {
			return err
		}
		if err := done2.Wait(env); err != nil {
			return err
		}
		if wroteAt < drainTime {
			t.Errorf("write completed at %v, want blocked until reader drained at %v", wroteAt, drainTime)
		}
		if err := a.Close(env, w); err != nil {
			return err
		}
		return a.Close(env, r)
	})
	if err := h.sim.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestPipeEPIPEWhenNoReaders(t *testing.T) {
	h := newHarness(t, 1)
	a := h.fs.Client(2)
	h.run(t, func(env *sim.Env) error {
		r, w, err := a.CreatePipe(env)
		if err != nil {
			return err
		}
		if err := a.Close(env, r); err != nil {
			return err
		}
		if _, err := a.Write(env, w, []byte("x")); !errors.Is(err, ErrBadStream) {
			t.Errorf("write err = %v, want ErrBadStream (EPIPE)", err)
		}
		return a.Close(env, w)
	})
}

func TestPipeSeekRejected(t *testing.T) {
	h := newHarness(t, 1)
	a := h.fs.Client(2)
	h.run(t, func(env *sim.Env) error {
		r, w, err := a.CreatePipe(env)
		if err != nil {
			return err
		}
		if err := a.Seek(env, r, 0); !errors.Is(err, ErrBadStream) {
			t.Errorf("seek err = %v, want ErrBadStream", err)
		}
		if err := a.Close(env, r); err != nil {
			return err
		}
		return a.Close(env, w)
	})
}
