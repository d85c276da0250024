package fs

import (
	"testing"
	"time"

	"sprite/internal/metrics"
	"sprite/internal/sim"
)

// TestPrefixBroadcastChargedOncePerDomain: a client's first open in a
// domain pays the prefix broadcast; subsequent opens hit the cached table.
func TestPrefixBroadcastChargedOncePerDomain(t *testing.T) {
	s := sim.New(1)
	tr := rpcFabric(s)
	f := New(s, tr, DefaultParams())
	f.AddServer(1, "/")
	f.AddServer(4, "/b")
	c := f.AddClient(3)
	reg := metrics.New()
	f.SetMetrics(reg)
	queries := reg.Counter("fs.prefix.queries")
	if _, err := f.Seed("/a/x", []byte("1"), false); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seed("/b/x", []byte("2"), false); err != nil {
		t.Fatal(err)
	}
	s.Spawn("t", func(env *sim.Env) error {
		for i := 0; i < 3; i++ {
			if _, err := c.ReadFile(env, "/a/x"); err != nil {
				return err
			}
		}
		if got := queries.Value(); got != 1 {
			t.Errorf("prefix queries after repeated root opens = %d, want 1", got)
		}
		// First touch of the /b domain pays another broadcast.
		if _, err := c.ReadFile(env, "/b/x"); err != nil {
			return err
		}
		if got := queries.Value(); got != 2 {
			t.Errorf("prefix queries after /b open = %d, want 2", got)
		}
		if _, err := c.ReadFile(env, "/b/x"); err != nil {
			return err
		}
		if got := queries.Value(); got != 2 {
			t.Errorf("prefix queries after cached /b open = %d, want 2", got)
		}
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixMissCostsTime: the discovery broadcast shows up as latency on
// the first open only.
func TestPrefixMissCostsTime(t *testing.T) {
	s := sim.New(1)
	tr := rpcFabric(s)
	f := New(s, tr, DefaultParams())
	f.AddServer(1, "/")
	c := f.AddClient(2)
	if _, err := f.Seed("/f", make([]byte, 64), false); err != nil {
		t.Fatal(err)
	}
	var first, second time.Duration
	s.Spawn("t", func(env *sim.Env) error {
		t0 := env.Now()
		if _, err := c.ReadFile(env, "/f"); err != nil {
			return err
		}
		first = env.Now() - t0
		c.DropCaches() // keep block behaviour identical between the runs
		t0 = env.Now()
		if _, err := c.ReadFile(env, "/f"); err != nil {
			return err
		}
		second = env.Now() - t0
		return nil
	})
	if err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if first <= second {
		t.Fatalf("first open (%v) should exceed later opens (%v) by the prefix broadcast", first, second)
	}
}
