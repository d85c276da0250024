// Stub of sprite/internal/sim shared by every analyzer fixture: only the
// receiver type names and method signatures the engine matches against
// must agree with the real package.
package sim

import (
	"math/rand"
	"time"
)

type Simulation struct{}

type Env struct{}

func (s *Simulation) Spawn(name string, fn func(env *Env) error) *Env { return nil }
func (s *Simulation) SpawnOn(shard int, name string, fn func(env *Env) error) *Env {
	return nil
}
func (s *Simulation) Rand() *rand.Rand                 { return nil }
func (s *Simulation) After(d time.Duration, fn func()) {}
func (s *Simulation) Stop()                            {}

func (e *Env) Spawn(name string, fn func(env *Env) error) *Env { return nil }
func (e *Env) SpawnOn(shard int, name string, fn func(env *Env) error) *Env {
	return nil
}

func (e *Env) Rand() *rand.Rand            { return nil }
func (e *Env) LocalRand() *rand.Rand       { return nil }
func (e *Env) Now() time.Duration          { return 0 }
func (e *Env) Sleep(d time.Duration) error { return nil }
func (e *Env) Emit(kind, detail string)    {}

type Mailbox struct{}

func (m *Mailbox) Send(env *Env, v any)       {}
func (m *Mailbox) Recv(env *Env) (any, error) { return nil, nil }
func (m *Mailbox) Close()                     {}

func WorkerSlot(env *Env) int { return 0 }
