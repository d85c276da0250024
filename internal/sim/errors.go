package sim

import "errors"

// ErrConfinedContract is the sentinel behind every confined-contract
// violation (DESIGN.md §14): an operation that is inherently cross-shard —
// host crashes, process-family calls from a migrated process — was attempted
// on a cluster running with hosts confined to their own shards. The
// violation is raised as a panic carrying a *ConfinedContractError (so a
// misconfigured chaos suite fails loudly at the offending instant rather
// than corrupting the replay), and surfaces as the activity's error; match
// it with errors.Is(err, sim.ErrConfinedContract) and unpack host/reason
// context with errors.As.
var ErrConfinedContract = errors.New("confined contract violation (DESIGN.md §14)")

// ConfinedContractError carries the context of one confined-contract
// violation: which operation, on which host, and why the contract excludes
// it. It unwraps to ErrConfinedContract.
type ConfinedContractError struct {
	Op     string // the forbidden operation ("CrashHost", "Fork by migrated process", ...)
	Host   string // the host (or process) the operation targeted, if known
	Reason string // why the contract excludes it, or the triggering error
}

func (e *ConfinedContractError) Error() string {
	s := e.Op
	if e.Host != "" {
		s += " for " + e.Host
	}
	s += " is not supported under host confinement (DESIGN.md §14)"
	if e.Reason != "" {
		s += ": " + e.Reason
	}
	return s
}

func (e *ConfinedContractError) Unwrap() error { return ErrConfinedContract }
