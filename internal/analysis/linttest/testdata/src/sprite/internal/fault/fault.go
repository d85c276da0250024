// Stub of sprite/internal/fault's Plane, shared by every analyzer fixture.
package fault

type Plane struct{}

func (p *Plane) FailMigration(point string, rest ...any) {}
