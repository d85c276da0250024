package fs

import (
	"bytes"
	"strings"
	"testing"

	"sprite/internal/sim"
)

// TestCountedCallsAllocateNothing pins the content-free calls' cost on a
// warm cache: a cached ReadCount and a cached WriteZeros allocate nothing.
func TestCountedCallsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	const n = 2 * 4096
	if _, err := h.fs.Seed("/warm", bytes.Repeat([]byte{3}, n), false); err != nil {
		t.Fatal(err)
	}
	h.run(t, func(env *sim.Env) error {
		st, err := c.Open(env, "/warm", ReadWriteMode, OpenOptions{})
		if err != nil {
			return err
		}
		readCount := func() {
			if err := c.Seek(env, st, 0); err != nil {
				t.Error(err)
			}
			if got, err := c.ReadCount(env, st, n); err != nil || got != n {
				t.Errorf("ReadCount = %d, %v; want %d", got, err, n)
			}
		}
		writeZeros := func() {
			if err := c.Seek(env, st, 0); err != nil {
				t.Error(err)
			}
			if got, err := c.WriteZeros(env, st, n); err != nil || got != n {
				t.Errorf("WriteZeros = %d, %v; want %d", got, err, n)
			}
		}
		readCount() // warm the cache
		if a := testing.AllocsPerRun(100, readCount); a != 0 {
			t.Errorf("warm cached ReadCount allocates %.1f objects, want 0", a)
		}
		if a := testing.AllocsPerRun(100, writeZeros); a != 0 {
			t.Errorf("cached WriteZeros allocates %.1f objects, want 0", a)
		}
		return c.Close(env, st)
	})
}

// TestRecalledZerosStoreNothing writes a file only through WriteZeros,
// recalls it to the server by opening it on another host, and checks the
// server holds its length and no bytes — while the other host reads zeros.
func TestRecalledZerosStoreNothing(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.fs.Client(2), h.fs.Client(3)
	const n = 3*4096 + 100
	h.run(t, func(env *sim.Env) error {
		st, err := a.Open(env, "/zeros", WriteMode, OpenOptions{Create: true})
		if err != nil {
			return err
		}
		if _, err := a.WriteZeros(env, st, n); err != nil {
			return err
		}
		if err := a.Close(env, st); err != nil {
			return err
		}
		if a.DirtyBlocks() == 0 {
			t.Error("want the zeros dirty in the writer's cache before the recall")
		}
		got, err := b.ReadFile(env, "/zeros")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, make([]byte, n)) {
			t.Errorf("other host reads %d bytes (first non-zero at %d), want %d zeros", len(got), bytes.IndexFunc(got, func(r rune) bool { return r != 0 }), n)
		}
		return nil
	})
	if h.srv.Stats().FlushRecall == 0 {
		t.Error("want a flush recall")
	}
	fl := h.srv.files["/zeros"]
	if fl.size != n || len(fl.data) != 0 {
		t.Errorf("server file: size %d with %d stored bytes, want size %d with none", fl.size, len(fl.data), n)
	}
}

// TestCheckInvariantsCatchesDirtyCountDrift checks that the per-file dirty
// count is audited against the cache it summarizes.
func TestCheckInvariantsCatchesDirtyCountDrift(t *testing.T) {
	h := newHarness(t, 1)
	c := h.fs.Client(2)
	h.run(t, func(env *sim.Env) error {
		return c.WriteFile(env, "/d", make([]byte, 3*4096))
	})
	if v := h.fs.CheckInvariants(false); len(v) != 0 {
		t.Fatalf("clean cache reports %v", v)
	}
	for fid := range c.dirty {
		c.dirty[fid]++
	}
	if v := h.fs.CheckInvariants(false); len(v) != 1 || !strings.Contains(v[0], "dirty counts") {
		t.Errorf("drifted count reports %v, want one dirty-count violation", v)
	}
}
