//go:build !race

package mpi

// raceEnabled gates the allocation-count tests under the race detector.
const raceEnabled = false
