// Fixture for the metricname analyzer: metric names follow
// area.noun[.verb]; dynamic names need a conforming literal backbone.
package a

import (
	"fmt"

	"sprite/internal/metrics"
)

func good(r *metrics.Registry, host string) {
	r.Counter("mig.started")
	r.Gauge("host.load_current")
	r.Timing("recovery.detect-latency")
	r.Timing("mig.vm_copy")
	r.Counter("mig.phase." + host)                 // conforming literal backbone
	r.Timing(fmt.Sprintf("rpc.to.%s.calls", host)) // Sprintf format with verbs masked
}

func bad(r *metrics.Registry, host string) {
	r.Counter("Mig.Started")      // want `does not follow area\.noun`
	r.Gauge("oneword")            // want `does not follow area\.noun`
	r.Timing(host)                // want `dynamically-built metric name with no literal fragment`
	r.Counter("Bad-Frag." + host) // want `segment "Bad-Frag" breaks the area\.noun`
	r.Timing("mig..double")       // want `does not follow area\.noun`
}

func suppressed(r *metrics.Registry) {
	r.Counter("scratch") //spritelint:allow metricname fixture exercises the escape hatch
}
