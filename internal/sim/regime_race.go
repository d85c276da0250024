//go:build race

package sim

// Race timing means nothing, and the race runs audit every window handoff.
func init() { defaultRegime = regimeWindowed }
