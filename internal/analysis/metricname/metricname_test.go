package metricname_test

import (
	"testing"

	"sprite/internal/analysis/linttest"
	"sprite/internal/analysis/metricname"
)

func TestMetricname(t *testing.T) {
	linttest.RunTree(t, "a", metricname.Analyzer)
}
