package recovery

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sprite/internal/core"
	"sprite/internal/sim"
	"sprite/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the crash-scenario goldens under testdata/")

// renderRecords renders completed migration records and asserts the abort
// accounting discipline: every record's phase times must tile its Total
// exactly — a crash-induced abort that loses (or double-counts) a phase
// shows up here as a tiling error before it shows up in the golden diff.
func renderRecords(t *testing.T, b *strings.Builder, c *core.Cluster) {
	t.Helper()
	for i, rec := range c.MigrationRecords() {
		sum := rec.NegotiateTime + rec.VMTime + rec.FileTime + rec.PCBTime + rec.ResumeTime
		if sum != rec.Total {
			t.Errorf("record %d: phases sum to %v, Total = %v (accounting does not tile)", i, sum, rec.Total)
		}
		fmt.Fprintf(b, "record %d: %v %v->%v strategy=%s batched=%v total=%v neg=%v vm=%v files=%v pcb=%v resume=%v\n",
			i, rec.PID, rec.From, rec.To, rec.Strategy, rec.Batched,
			rec.Total, rec.NegotiateTime, rec.VMTime, rec.FileTime, rec.PCBTime, rec.ResumeTime)
	}
}

// checkGolden compares got against testdata/<name>.golden, rewriting it
// under -update-golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Fatalf("snapshot changed vs %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// traceSink collects the crash-relevant slice of the event stream.
func traceSink(b *strings.Builder) func(trace.Event) {
	return func(ev trace.Event) {
		switch ev.Kind {
		case trace.ProcStart, trace.ProcExit, trace.ProcCrash, trace.Migration,
			trace.HostCrash, trace.HostRestart, trace.HostReboot, trace.HostReap, trace.ReapOrphan:
			fmt.Fprintf(b, "%12v %-12s %s\n", ev.At, ev.Kind, ev.Detail())
		}
	}
}

// targetCrashSnapshot pins "target crashes mid-bulk-transfer": a process
// with a large dirty heap starts a batched migration and the target
// fail-stops while page runs are on the wire. The migration aborts back to
// the source, the process then migrates successfully to a third host, and
// both the abort metrics and the completed record's exact phase tiling are
// part of the snapshot.
func targetCrashSnapshot(t *testing.T, seed int64) string {
	t.Helper()
	c, err := core.NewCluster(core.Options{Workstations: 3, FileServers: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SeedBinary("/bin/prog", 64<<10); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	c.SetTrace(traceSink(&b))
	src, victim, refuge := c.Workstation(0), c.Workstation(1), c.Workstation(2)
	var firstErr, secondErr error
	c.Boot("boot", func(env *sim.Env) error {
		p, err := src.StartProcess(env, "golden", func(ctx *core.Ctx) error {
			if err := ctx.TouchHeap(0, 64, true); err != nil {
				return err
			}
			firstErr = ctx.Migrate(victim.Host())
			secondErr = ctx.Migrate(refuge.Host())
			return ctx.Compute(10 * time.Millisecond)
		}, core.ProcConfig{Binary: "/bin/prog", CodePages: 8, HeapPages: 64, StackPages: 4})
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	c.Boot("crash", func(env *sim.Env) error {
		// Mid-VM-transfer for the batched sprite-flush of a 64-page dirty
		// heap (the migration starts at ~8 ms and runs tens of ms).
		if err := env.Sleep(30 * time.Millisecond); err != nil {
			return nil
		}
		c.CrashHost(env, victim.Host())
		c.ReapDeadHost(env, victim.Host(), c.HostEpoch(victim.Host()))
		return nil
	})
	if err := c.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "first-migrate-failed=%v second-migrate-ok=%v\n", firstErr != nil, secondErr == nil)
	renderRecords(t, &b, c)
	snap := c.MetricsSnapshot()
	fmt.Fprintf(&b, "mig.started=%d mig.completed=%d mig.aborted=%d\n",
		snap.Counters["mig.started"], snap.Counters["mig.completed"], snap.Counters["mig.aborted"])
	if v := c.CheckInvariants(true); len(v) != 0 {
		t.Errorf("invariants violated: %v", v)
	}
	return b.String()
}

// homeCrashSnapshot pins "home crashes while child is remote": a parent
// forks a child, the child migrates away, then the home machine dies. The
// reaping pass kills the orphan on its current host (Sprite's
// home-dependency semantics) and the invariants — ledger, tables, stream
// refs — must all settle.
func homeCrashSnapshot(t *testing.T, seed int64) string {
	t.Helper()
	c, err := core.NewCluster(core.Options{Workstations: 2, FileServers: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SeedBinary("/bin/prog", 64<<10); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	c.SetTrace(traceSink(&b))
	home, away := c.Workstation(0), c.Workstation(1)
	c.Boot("boot", func(env *sim.Env) error {
		_, err := home.StartProcess(env, "parent", func(ctx *core.Ctx) error {
			_, err := ctx.Fork("child", func(cctx *core.Ctx) error {
				if err := cctx.Migrate(away.Host()); err != nil {
					return err
				}
				// Compute long enough that the home dies mid-run; the kill
				// arrives at a quantum boundary.
				return cctx.Compute(500 * time.Millisecond)
			}, core.ProcConfig{Binary: "/bin/prog", CodePages: 4, HeapPages: 16, StackPages: 2})
			if err != nil {
				return err
			}
			_, _, werr := ctx.Wait()
			return werr
		}, core.ProcConfig{Binary: "/bin/prog", CodePages: 4, HeapPages: 16, StackPages: 2})
		return err
	})
	c.Boot("crash", func(env *sim.Env) error {
		if err := env.Sleep(120 * time.Millisecond); err != nil {
			return nil
		}
		c.CrashHost(env, home.Host())
		c.ReapDeadHost(env, home.Host(), c.HostEpoch(home.Host()))
		return nil
	})
	if err := c.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	renderRecords(t, &b, c)
	if v := c.CheckInvariants(true); len(v) != 0 {
		t.Errorf("invariants violated: %v", v)
	}
	return b.String()
}

// TestGoldenCrashScenarios pins the two canonical crash-during-migration
// stories byte for byte. Each must be identical run over run (determinism)
// and identical to the committed golden; regenerate with -update-golden
// when a cost-model change is intentional.
func TestGoldenCrashScenarios(t *testing.T) {
	cases := []struct {
		name string
		fn   func(*testing.T, int64) string
	}{
		{"target_crash_midtransfer", targetCrashSnapshot},
		{"home_crash_remote_child", homeCrashSnapshot},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := tc.fn(t, 1)
			if again := tc.fn(t, 1); again != got {
				t.Fatalf("same-seed reruns differ:\n--- first ---\n%s\n--- second ---\n%s", got, again)
			}
			checkGolden(t, tc.name, got)
		})
	}
}
