package mrc

import (
	"fmt"

	"gpuscale/internal/trace"
)

// InterleavedStreamN is InterleavedStream with configurable interleaving
// granularity: each live warp contributes a burst of up to perTurn memory
// accesses per round-robin turn. Granularity 1 models maximal thread-level
// interleaving (the default of InterleavedStream and the assumption of
// GPU reuse-distance models for fine-grained schedulers); larger values
// model coarser scheduling, which shortens intra-warp reuse distances and
// lengthens inter-warp ones — the knob Nugteren et al. identify as the main
// accuracy lever of reuse-distance GPU cache models.
func InterleavedStreamN(w trace.Workload, lineSize, perTurn int) (lines []uint64, instrs uint64, err error) {
	if w == nil {
		return nil, 0, fmt.Errorf("mrc: nil workload")
	}
	if perTurn <= 0 {
		return nil, 0, fmt.Errorf("mrc: perTurn must be positive, got %d", perTurn)
	}
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		return nil, 0, fmt.Errorf("mrc: line size must be a positive power of two, got %d", lineSize)
	}
	lineBits := uint(0)
	for 1<<lineBits != lineSize {
		lineBits++
	}
	tr, err := extract(w)
	if err != nil {
		return nil, 0, err
	}
	if len(tr.addrs) > 0 {
		lines = make([]uint64, 0, len(tr.addrs))
	}
	rg := &tr.rings(1)[0]
	for len(rg.live) > 0 {
		pos, n := rg.take(perTurn)
		for _, addr := range tr.addrs[pos : pos+n] {
			lines = append(lines, addr>>lineBits)
		}
	}
	return lines, tr.instrs, nil
}
