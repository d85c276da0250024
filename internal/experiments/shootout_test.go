package experiments

import "testing"

// Bounds on the gossip selector's quick-mode shoot-out point at seed 42
// (the configuration E16.golden pins byte for byte). Virtual time makes the
// run deterministic, so the gate is exact — a drift past any bound is a
// real behaviour change, not noise.
const (
	gossipMaxMisplaceRate = 0.15
	gossipMinGranted      = 300
	gossipMaxMeanMs       = 15.0
)

// TestGossipMisplaceGate runs the quick shoot-out at seed 42 and gates the
// gossip selector: misplacement must stay under the ceiling (bounded stale
// views recovering via claim verification), enough requests must be
// granted (the selector keeps working through churn), and mean selection
// latency must stay local-read cheap.
func TestGossipMisplaceGate(t *testing.T) {
	tbl, err := E16SelectorShootout(Config{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var gossip *e16Row
	for _, r := range tbl.Data.([]*e16Row) {
		if r.Architecture == "gossip" {
			gossip = r
		}
	}
	if gossip == nil {
		t.Fatal("no gossip row in shoot-out snapshot")
	}
	if gossip.MisplaceRate > gossipMaxMisplaceRate {
		t.Errorf("gossip misplace rate %.4f exceeds ceiling %.4f", gossip.MisplaceRate, gossipMaxMisplaceRate)
	}
	if gossip.Granted < gossipMinGranted {
		t.Errorf("gossip granted %d below floor %d", gossip.Granted, gossipMinGranted)
	}
	if gossip.MeanMs > gossipMaxMeanMs {
		t.Errorf("gossip mean selection %.2fms exceeds ceiling %.2fms", gossip.MeanMs, gossipMaxMeanMs)
	}
}
