//go:build race

package core

// raceEnabled gates the allocation-budget test: the race runtime allocates
// on its own account, so the bytes mean nothing under -race.
const raceEnabled = true
