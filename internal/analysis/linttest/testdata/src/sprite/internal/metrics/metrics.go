// Stub of sprite/internal/metrics shared by every analyzer fixture: the
// instruments' sharded/unsharded mutator pairs must match the real package.
package metrics

import "time"

type Counter struct{}

func (c *Counter) Inc()                      {}
func (c *Counter) Add(n int64)               {}
func (c *Counter) IncSlot(slot int)          {}
func (c *Counter) AddSlot(slot int, n int64) {}

type Timing struct{}

func (t *Timing) Observe(d time.Duration)               {}
func (t *Timing) ObserveSlot(slot int, d time.Duration) {}

type Registry struct{}

func (r *Registry) SetGauges(prefix string, stats any) {}

type Gauge struct{}

func (g *Gauge) Set(v int64) {}
