// Package core is the reproduction's primary contribution: per-host Sprite
// kernels with transparent process migration (Douglis & Ousterhout, ICDCS
// 1987; Douglis's 1990 thesis).
//
// A Cluster assembles workstations and file servers over one RPC fabric
// and one shared file system. Each workstation's Kernel owns a process
// table; simulated user processes are Go closures over a Ctx whose methods
// are the kernel calls, each implementing its Appendix-A handling policy
// (SyscallTable):
//
//   - location-independent calls execute on the current host;
//   - file-system calls are transparent through the shared FS;
//   - family/host/time calls of a migrated process are forwarded to its
//     home machine, which keeps a record of every home process and its
//     current location;
//   - calls that depend on transferred state (address space, descriptor
//     table, signal dispositions, cwd) work locally because migration
//     moves that state.
//
// Migration itself happens at migration points (kernel-call entry, compute
// quantum boundaries, exec): handshake with version check, virtual memory
// per the configured TransferStrategy (Sprite's backing-store flush by
// default; full copy, copy-on-reference, and pre-copy as ablations), open
// streams with I/O-server coordination, then the PCB. Exec-time migration
// skips the VM entirely — the remote-invocation path pmake uses. Eviction
// sends every foreign process home when a workstation's owner returns.
package core
