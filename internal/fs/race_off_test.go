//go:build !race

package fs

const raceEnabled = false
