// Stub of sprite/internal/core shared by every analyzer fixture: only the
// Cluster receiver type and the BootOn signature must match the real
// package.
package core

import "sprite/internal/sim"

type PID int

type Cluster struct{}

func (c *Cluster) BootOn(host int, name string, fn func(env *sim.Env) error) {}
