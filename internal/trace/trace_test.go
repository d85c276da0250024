package trace_test

import (
	"strings"
	"testing"
	"time"

	"sprite/internal/core"
	"sprite/internal/rpc"
	"sprite/internal/sim"
	"sprite/internal/trace"
)

func TestRingRetainsNewest(t *testing.T) {
	l := trace.New(3)
	for i := 0; i < 5; i++ {
		l.Append(trace.Event{At: time.Duration(i) * time.Second})
	}
	evs := l.Tail(10)
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	if evs[0].At != 2*time.Second || evs[2].At != 4*time.Second {
		t.Fatalf("events = %v", evs)
	}
	if s := l.String(); !strings.HasPrefix(s, "(2 earlier events dropped)\n") {
		t.Fatalf("render = %q, want two dropped", s)
	}
}

func TestTail(t *testing.T) {
	l := trace.New(4)
	for i := 0; i < 6; i++ { // wraps: ring holds seconds 2..5
		l.Append(trace.Event{At: time.Duration(i) * time.Second})
	}
	tail := l.Tail(2)
	if len(tail) != 2 || tail[0].At != 4*time.Second || tail[1].At != 5*time.Second {
		t.Fatalf("Tail(2) = %v", tail)
	}
	if got := l.Tail(10); len(got) != 4 {
		t.Fatalf("Tail(10) len = %d, want all 4 retained", len(got))
	}
	if got := l.Tail(0); got != nil {
		t.Fatalf("Tail(0) = %v, want nil", got)
	}
}

func TestStringRendering(t *testing.T) {
	l := trace.New(2)
	for i := 0; i < 3; i++ {
		l.Append(trace.Event{At: time.Second, Kind: trace.HostCrash, Host: 3, Epoch: 2})
	}
	want := "(1 earlier events dropped)\n" +
		"[          1s] host-crash       host host3 epoch 2\n" +
		"[          1s] host-crash       host host3 epoch 2\n"
	if s := l.String(); s != want {
		t.Fatalf("render = %q, want %q", s, want)
	}
}

// TestEveryKindNamed: each kind in the vocabulary prints under its own
// name, so no two kinds read alike in a trace.
func TestEveryKindNamed(t *testing.T) {
	seen := map[string]trace.Kind{}
	for k := trace.Kind(1); k < trace.NumKinds; k++ {
		name := k.String()
		if name == "" {
			t.Errorf("kind %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d are both named %q", prev, k, name)
		}
		seen[name] = k
	}
}

// TestRendererSpellsHostsAndPIDsAsCore: the renderer keeps its own host
// and pid spelling (trace cannot import rpc or core), so this pins it to
// rpc.HostID.String and core.PID.String.
func TestRendererSpellsHostsAndPIDsAsCore(t *testing.T) {
	pid := core.PID{Home: 12, Seq: 345}
	ev := trace.Event{Kind: trace.Eviction, Home: int(pid.Home), Seq: pid.Seq, Host: 7, Peer: 12}
	want := pid.String() + " evicted from " + rpc.HostID(7).String() + " to " + rpc.HostID(12).String()
	if got := ev.Detail(); got != want {
		t.Fatalf("Detail = %q, want %q", got, want)
	}
	ev = trace.Event{Kind: trace.ExecMigrateAbort, Home: 1, Seq: 2, Peer: 4, Err: "target down"}
	if got, want := ev.Detail(), "host1.2 -> host4: target down"; got != want {
		t.Fatalf("Detail = %q, want %q", got, want)
	}
}

// TestClusterEmitsTraceEvents wires a log into a cluster and checks that a
// migration run produces the expected event kinds in time order.
func TestClusterEmitsTraceEvents(t *testing.T) {
	c, err := core.NewCluster(core.Options{Workstations: 2, FileServers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SeedBinary("/bin/prog", 64<<10); err != nil {
		t.Fatal(err)
	}
	l := trace.New(128)
	c.SetTrace(l.Append)
	dst := c.Workstation(1)
	c.Boot("boot", func(env *sim.Env) error {
		p, err := c.Workstation(0).StartProcess(env, "traced", func(ctx *core.Ctx) error {
			if err := ctx.TouchHeap(0, 4, true); err != nil {
				return err
			}
			return ctx.Migrate(dst.Host())
		}, core.ProcConfig{Binary: "/bin/prog", CodePages: 2, HeapPages: 4, StackPages: 1})
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	evs := l.Tail(128)
	count := map[trace.Kind]int{}
	for i, ev := range evs {
		count[ev.Kind]++
		if i > 0 && ev.At < evs[i-1].At {
			t.Fatalf("events out of order:\n%s", l)
		}
	}
	if count[trace.ProcStart] != 1 || count[trace.Migration] != 1 || count[trace.ProcExit] != 1 {
		t.Fatalf("events:\n%s", l)
	}
}
