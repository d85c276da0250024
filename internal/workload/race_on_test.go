//go:build race

package workload

// raceEnabled gates the allocation-count tests: the race runtime allocates
// on its own account, so the counts mean nothing under -race.
const raceEnabled = true
