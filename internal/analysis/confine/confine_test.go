package confine

import (
	"testing"

	"sprite/internal/analysis/linttest"
	"sprite/internal/analysis/sharded"
)

func TestConfine(t *testing.T) {
	linttest.RunTree(t, "a", Analyzer)
}

// TestSpawnedBodies runs the rules that apply to a spawned body itself —
// the former shardedstate analyzer's cases, want for want. They are split
// between confine (captured writes, Env.Rand) and sharded (metrics
// mutators), so the fixture is checked against both.
func TestSpawnedBodies(t *testing.T) {
	linttest.RunTree(t, "spawned", Analyzer, sharded.Analyzer)
}
