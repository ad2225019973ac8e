//go:build race

package datatype_test

// raceEnabled gates the allocation-count assertions on pooled memory:
// the race runtime drops pooled objects on purpose.
const raceEnabled = true
