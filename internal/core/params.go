package core

import (
	"time"

	"sprite/internal/fs"
	"sprite/internal/netsim"
	"sprite/internal/rpc"
	"sprite/internal/vm"
)

// Params collects every calibration constant in the model. The defaults
// approximate the Sun-3-class workstations and 10 Mbit/s Ethernet of the
// thesis's testbed; EXPERIMENTS.md records which results are sensitive to
// which constants, and the ablation benches sweep the interesting ones.
type Params struct {
	Net netsim.Params
	RPC rpc.Params
	FS  fs.Params
	VM  vm.Params
	Sim SimParams

	// CPUQuantum is the timesharing quantum of each host's scheduler.
	CPUQuantum time.Duration
	// SyscallCPU is the local kernel-call overhead (trap + dispatch).
	SyscallCPU time.Duration
	// ForkCPU is the local cost of fork (PCB setup; Sprite used COW so the
	// address-space cost is deferred to touches).
	ForkCPU time.Duration
	// ExecCPU is the local cost of exec excluding code page-ins, which are
	// charged naturally as the new program touches its text.
	ExecCPU time.Duration
	// ExitCPU is the local cost of process teardown.
	ExitCPU time.Duration

	// MigInitCPU is the handshake cost at each end of a migration (version
	// check, allocating the skeleton PCB).
	MigInitCPU time.Duration
	// MigInitBytes is the wire size of the migration handshake.
	MigInitBytes int
	// MigPCBCPU is the cost of encapsulating and installing the process
	// control block and other untyped process state.
	MigPCBCPU time.Duration
	// MigPCBBytes is the wire size of the transferred PCB state.
	MigPCBBytes int
	// MigPerFileCPU is the per-open-stream bookkeeping cost at migration
	// time, in addition to the fs RPCs the stream move itself performs.
	MigPerFileCPU time.Duration

	// IdleLoadThreshold and IdleInputAge define host availability: load
	// average below the threshold and no user input for at least the age
	// (Sprite required roughly load < 0.3 and 30 s of input silence).
	IdleLoadThreshold float64
	IdleInputAge      time.Duration

	// PageWireOverhead is the per-page message overhead for strategies
	// that ship pages directly between kernels.
	PageWireOverhead int
}

// SimParams selects and tunes the event kernel (DESIGN.md §13). The zero
// value is the serial oracle; the conservative parallel kernel commits an
// event order that is bit-for-bit identical to it, so flipping Parallel can
// never change a result — only wallclock.
type SimParams struct {
	// Parallel dispatches shard-confined activities on worker goroutines.
	// All cluster kernels live on the exclusive shard and are unaffected;
	// parallelism comes from confined daemons (internal/workload.BgLoad).
	Parallel bool
	// Workers is the worker-goroutine count when Parallel is set
	// (0 = GOMAXPROCS).
	Workers int
	// ConfineHosts homes every simulated host on its own shard: RPC
	// dispatchers, fs servers, and process activities for host H run
	// confined to shard H, and all cross-host interaction rides mailboxes
	// with delay >= lookahead. Combined with Parallel this dispatches the
	// whole RPC/FS/migration plane concurrently inside lookahead windows;
	// without Parallel it exercises the identical code path under the
	// serial oracle (which is how equivalence is checked). Confined
	// clusters trade generality for speed — see DESIGN.md §14 for the
	// contract (uncontended network, no host crashes).
	ConfineHosts bool
}

// DefaultParams returns the Sun-3-era calibration.
func DefaultParams() Params {
	return Params{
		Net: netsim.DefaultParams(),
		RPC: rpc.DefaultParams(),
		FS:  fs.DefaultParams(),
		VM:  vm.DefaultParams(),

		CPUQuantum: 20 * time.Millisecond,
		SyscallCPU: 100 * time.Microsecond,
		ForkCPU:    8 * time.Millisecond,
		ExecCPU:    20 * time.Millisecond,
		ExitCPU:    4 * time.Millisecond,

		MigInitCPU:    6 * time.Millisecond,
		MigInitBytes:  128,
		MigPCBCPU:     12 * time.Millisecond,
		MigPCBBytes:   4096,
		MigPerFileCPU: 4 * time.Millisecond,

		IdleLoadThreshold: 0.3,
		IdleInputAge:      30 * time.Second,

		PageWireOverhead: 64,
	}
}
