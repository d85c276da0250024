package fault

import (
	"errors"
	"testing"
	"time"

	"sprite/internal/core"
	"sprite/internal/sim"
)

// bulkCluster builds a default cluster, each host confined to its own shard
// if asked, with the test binary seeded.
func bulkCluster(t *testing.T, workstations int, seed int64, confined bool) *core.Cluster {
	t.Helper()
	params := core.DefaultParams()
	params.Sim.ConfineHosts = confined
	c, err := core.NewCluster(core.Options{Workstations: workstations, FileServers: 1, Seed: seed, Params: &params})
	if err != nil {
		t.Fatal(err)
	}
	if confined && !c.Transport().Confined() {
		t.Fatal("cluster is not confined")
	}
	if err := c.SeedBinary("/bin/prog", 64<<10); err != nil {
		t.Fatal(err)
	}
	return c
}

var bulkProc = core.ProcConfig{Binary: "/bin/prog", CodePages: 4, HeapPages: 64, StackPages: 2}

// TestBulkMigrationRetransmitsUnderDrops: with the fault plane dropping a
// fifth of all traffic, a batched migration loses fragments mid-batch, pays
// retransmission timeouts, and still completes with every invariant intact.
func TestBulkMigrationRetransmitsUnderDrops(t *testing.T) {
	c := bulkCluster(t, 2, 7, false)
	plane := NewPlane(c, 99)
	plane.DropMessages(0, time.Hour, 0.2)
	src, dst := c.Workstation(0), c.Workstation(1)
	var merr error
	c.Boot("boot", func(env *sim.Env) error {
		p, err := src.StartProcess(env, "mover", func(ctx *core.Ctx) error {
			if err := ctx.TouchHeap(0, 64, true); err != nil {
				return err
			}
			merr = ctx.Migrate(dst.Host())
			return ctx.TouchHeap(0, 64, false)
		}, bulkProc)
		if err != nil {
			return err
		}
		_, err = p.Exited().Wait(env)
		return err
	})
	if err := c.Run(0); err != nil {
		t.Fatal(err)
	}
	if merr != nil {
		t.Fatalf("migration failed under 20%% loss: %v", merr)
	}
	recs := c.MigrationRecords()
	if len(recs) != 1 {
		t.Fatalf("migrations = %d, want 1", len(recs))
	}
	rec := recs[0]
	if !rec.Batched || rec.BatchFragments == 0 {
		t.Fatalf("migration did not use the bulk path: %+v", rec)
	}
	if rec.BatchRetransmits == 0 {
		t.Fatalf("no fragment retransmits under 20%% loss (seed-sensitive; re-pin the seed): %+v", rec)
	}
	if plane.Injected() == 0 {
		t.Fatal("fault plane injected nothing")
	}
	if v := c.CheckInvariants(true); len(v) != 0 {
		t.Fatalf("invariants violated: %v", v)
	}
}

// TestBulkAbortMidBatchRollsBack: an injected abort right after the batched
// VM transfer drives the abort-recovery path — the process resumes on the
// source with its streams restored, the metrics plane rolls back coherently,
// and a retry then succeeds over the same bulk path, in either cluster shape.
func TestBulkAbortMidBatchRollsBack(t *testing.T) {
	for _, shape := range []struct {
		name     string
		confined bool
	}{{"unconfined", false}, {"confined", true}} {
		confined := shape.confined
		t.Run(shape.name, func(t *testing.T) {
			c := bulkCluster(t, 2, 11, confined)
			plane := NewPlane(c, 5)
			plane.FailMigration(core.FailMigVM, core.PID{}, 0, time.Hour, 1, 1)
			src, dst := c.Workstation(0), c.Workstation(1)
			var firstErr, retryErr error
			c.Boot("boot", func(env *sim.Env) error {
				p, err := src.StartProcess(env, "unlucky", func(ctx *core.Ctx) error {
					if err := ctx.TouchHeap(0, 64, true); err != nil {
						return err
					}
					firstErr = ctx.Migrate(dst.Host())
					if err := ctx.TouchHeap(0, 8, true); err != nil {
						return err
					}
					retryErr = ctx.Migrate(dst.Host())
					return ctx.TouchHeap(0, 64, false)
				}, bulkProc)
				if err != nil {
					return err
				}
				_, err = p.Exited().Wait(env)
				return err
			})
			if err := c.Run(0); err != nil {
				t.Fatal(err)
			}
			if !errors.Is(firstErr, ErrInjected) {
				t.Fatalf("first migration err = %v, want injected failure", firstErr)
			}
			if retryErr != nil {
				t.Fatalf("retry after abort failed: %v", retryErr)
			}
			recs := c.MigrationRecords()
			if len(recs) != 1 || !recs[0].Batched {
				t.Fatalf("completed migrations = %+v, want one batched record", recs)
			}
			snap := c.MetricsSnapshot()
			if got := snap.Counters["mig.aborted"]; got != 1 {
				t.Fatalf("mig.aborted = %d, want 1", got)
			}
			if got := snap.Counters["mig.aborted.vm.sprite-flush"]; got != 1 {
				t.Fatalf("mig.aborted.vm.sprite-flush = %d, want 1", got)
			}
			if got := snap.Counters["mig.completed"]; got != 1 {
				t.Fatalf("mig.completed = %d, want 1", got)
			}
			if g := snap.Gauges["mig.inflight"]; g.Value != 0 {
				t.Fatalf("mig.inflight = %d, want 0", g.Value)
			}
			if v := c.CheckInvariants(true); len(v) != 0 {
				t.Fatalf("invariants violated after abort: %v", v)
			}
		})
	}
}
