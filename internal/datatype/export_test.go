package datatype

import "repro/internal/buf"

// The fan-out entries at a given worker count w, whatever the host's
// core count, for the package's external tests.
var (
	PackChunksW   = (*Plan).packChunks
	StageChunksW  = (*Plan).stageChunks
	PackRangeSumW = (*Plan).packRangeSum
	SplitPoint    = splitPoint
)

// ChecksumChunksW is ChecksumChunks at w workers.
func ChecksumChunksW(p *Plan, user buf.Block, n, size int64, set, sums []uint64, w int) {
	checksumChunks(p, user, n, size, set, sums, func(int64) int { return w })
}

// MoveW is Move at w workers.
var MoveW = move
