package sim

import "time"

// The simulator's one host-clock read, in a file simtaint lets read it: the
// parallel kernel times epochs to pick its regime, never what commits.
var clockBase = time.Now()

func hostNanos() int64 { return int64(time.Since(clockBase)) }
