package sharded

import (
	"testing"

	"sprite/internal/analysis/linttest"
)

func TestSharded(t *testing.T) {
	linttest.RunTree(t, "a", Analyzer)
}
