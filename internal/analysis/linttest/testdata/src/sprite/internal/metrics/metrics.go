// Stub of sprite/internal/metrics shared by every analyzer fixture: the
// Registry accessors' name argument and the instruments' sharded/unsharded
// mutator pairs must match the real package.
package metrics

import "time"

type Registry struct{}

func (r *Registry) Counter(name string) *Counter { return nil }
func (r *Registry) Gauge(name string) *Gauge     { return nil }
func (r *Registry) Timing(name string) *Timing   { return nil }

type Counter struct{}

func (c *Counter) Inc()                      {}
func (c *Counter) Add(n int64)               {}
func (c *Counter) IncSlot(slot int)          {}
func (c *Counter) AddSlot(slot int, n int64) {}

type Timing struct{}

func (t *Timing) Observe(d time.Duration)               {}
func (t *Timing) ObserveSlot(slot int, d time.Duration) {}

type Gauge struct{}

func (g *Gauge) Set(v int64) {}
func (g *Gauge) Add(n int64) {}
