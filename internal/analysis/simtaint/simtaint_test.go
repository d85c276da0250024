package simtaint

import (
	"testing"

	"sprite/internal/analysis/dataflow"
	"sprite/internal/analysis/linttest"
)

func TestSimtaint(t *testing.T) {
	tree := linttest.RunTree(t, "a", Analyzer)
	// The allow-listed file suppresses the diagnostic, not the taint:
	// wallReport's summary still records the wall-clock hit.
	s := tree.Sums["a.wallReport"]
	if s == nil || len(s.SinkHits) != 1 || s.SinkHits[0].Kinds&dataflow.KWalltime == 0 {
		t.Errorf("wallReport should still carry the suppressed wall-clock sink hit: %+v", s)
	}
}

// The three source-site and map-range fixtures below are the former
// walltime, globalrand and maporder analyzers' cases, want for want.

func TestWallClockSites(t *testing.T) { linttest.RunTree(t, "clock", Analyzer) }

func TestGlobalRandSites(t *testing.T) { linttest.RunTree(t, "rand", Analyzer) }

func TestMapRangeSinks(t *testing.T) { linttest.RunTree(t, "maprange", Analyzer) }
