package experiments

import (
	"fmt"
	"strings"
	"time"

	"sprite/internal/recovery"
	"sprite/internal/rpc"
)

// E15CrashRecovery goes beyond the thesis' performance tables into the
// availability story Sprite's design leans on: host liveness epochs, orphan
// reaping, and checkpoint-backed failover. It runs the canonical demo — a
// cluster, a liveness monitor, and three supervised jobs whose host dies
// mid-run — and reports what the recovery plane observed. The
// fault schedule is overridable from the CLI (-crash host@t[+dur]); the
// table's Data is the full metrics snapshot (the RECOVERY_demo.json CI
// artifact).
func E15CrashRecovery(cfg Config) (*Table, error) {
	c, err := cfg.cluster(cfg.Seed, 4, 1, nil, binary{"/bin/job", 128 << 10})
	if err != nil {
		return nil, err
	}
	res, err := recovery.RunDemoWith(c, cfg.Crashes)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:       "E15",
		Title:    "crash recovery and checkpointed failover",
		PaperRef: "beyond the thesis: Sprite's recovery model (host epochs, Welch 1990)",
		Columns:  []string{"metric", "value"},
	}
	cnt := res.Snapshot.Counters
	t.AddRow("jobs submitted", fmt.Sprintf("%d", cnt["recovery.jobs.submitted"]))
	t.AddRow("jobs completed", fmt.Sprintf("%d", res.Completed))
	t.AddRow("jobs lost", fmt.Sprintf("%d", len(res.Lost)))
	t.AddRow("restarts", fmt.Sprintf("%d", res.Restarts))
	t.AddRow("checkpoints taken", fmt.Sprintf("%d", cnt["recovery.checkpoints"]))
	t.AddRow("cpu recovered (ms)", ms(time.Duration(cnt["recovery.cpu_recovered_ns"])))
	t.AddRow("host-down events", fmt.Sprintf("%d", cnt["recovery.host_down"]))
	t.AddRow("host-up events", fmt.Sprintf("%d", cnt["recovery.host_up"]))
	if d, ok := res.Snapshot.Timings["recovery.detect_latency"]; ok && d.N > 0 {
		t.AddRow("detect latency p50 (ms)", ms(d.P50))
	}
	if r, ok := res.Snapshot.Timings["recovery.restart_latency"]; ok && r.N > 0 {
		t.AddRow("restart latency p50 (ms)", ms(r.P50))
	}

	var evs []string
	for _, ev := range res.Events {
		evs = append(evs, fmt.Sprintf("%v %v epoch=%d at=%v", ev.Kind, rpc.HostID(ev.Host), ev.Epoch, ev.At))
	}
	t.AddNote("liveness events: %s", strings.Join(evs, "; "))
	if len(res.Violations) != 0 {
		t.AddNote("INVARIANT VIOLATIONS: %s", strings.Join(res.Violations, "; "))
	}
	t.CaptureSnapshot(cfg, "demo", res.Snapshot)
	t.Data = res.Snapshot
	return t, nil
}
