package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"chainckpt/internal/core"
)

// Fingerprint returns the canonical cache key of a planning request: a
// hash over everything that determines the optimal schedule and nothing
// else. Task names, platform display names and solver tuning knobs
// (core.Options.SolveWorkers) are deliberately excluded, so requests that
// differ only in labels or in how they were produced — near-duplicates,
// in practice the common case across experiment sweeps — resolve to the
// same memo entry.
func Fingerprint(req Request) (string, error) {
	if req.Chain == nil || req.Chain.Len() == 0 {
		return "", fmt.Errorf("engine: request has no chain")
	}
	// Size mismatches are not fingerprintable (and Allowed/At would
	// panic); the caller falls back to the solver, which reports the
	// precise validation error.
	if cons := req.Opts.Constraints; cons != nil && cons.Len() != req.Chain.Len() {
		return "", fmt.Errorf("engine: constraints sized for %d tasks but chain has %d",
			cons.Len(), req.Chain.Len())
	}
	if costs := req.Opts.Costs; costs != nil && costs.Len() != req.Chain.Len() {
		return "", fmt.Errorf("engine: cost table for %d tasks but chain has %d",
			costs.Len(), req.Chain.Len())
	}
	// SolveWorkers is excluded from the hash (it cannot change the
	// plan), so an invalid value must not share a key — and an error —
	// with valid requests for the same instance.
	if err := core.CheckSolveWorkers(req.Opts.SolveWorkers); err != nil {
		return "", fmt.Errorf("engine: %w", err)
	}
	h := sha256.New()
	buf := make([]byte, 8)
	put := func(f float64) {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(f))
		h.Write(buf)
	}
	putInt := func(v int) {
		binary.LittleEndian.PutUint64(buf, uint64(v))
		h.Write(buf)
	}

	h.Write([]byte(req.Algorithm))
	h.Write([]byte{0})

	n := req.Chain.Len()
	putInt(n)
	for i := 1; i <= n; i++ {
		put(req.Chain.Weight(i))
	}

	p := req.Platform
	for _, f := range []float64{p.LambdaF, p.LambdaS, p.CD, p.CM, p.RD, p.RM, p.VStar, p.V, p.Recall} {
		put(f)
	}

	if costs := req.Opts.Costs; costs != nil {
		h.Write([]byte{1})
		for i := 1; i <= costs.Len(); i++ {
			bc := costs.At(i)
			for _, f := range []float64{bc.CD, bc.CM, bc.RD, bc.RM, bc.VStar, bc.V} {
				put(f)
			}
		}
	} else {
		h.Write([]byte{0})
	}

	if cons := req.Opts.Constraints; cons != nil {
		h.Write([]byte{1})
		for i := 1; i <= n; i++ {
			putInt(int(cons.Allowed(i)))
		}
	} else {
		h.Write([]byte{0})
	}

	putInt(req.Opts.MaxDiskCheckpoints)

	return string(h.Sum(nil)), nil
}
