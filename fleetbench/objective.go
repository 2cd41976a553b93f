package main

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/searchspace"
	"repro/internal/workload"
)

// Every workload runs ASHA with the paper's geometry: eta 4 and rungs at
// r·4^k for r = 1. The fleets use R = 256; sim-500 uses ptb-lstm's own
// R = 64 (r = R/64, as in Section 4.3).
const (
	eta       = 4
	minR      = 1.0
	fleetMaxR = 256.0
)

// rungOf maps a job's target resource to its rung index.
func rungOf(to float64) int { return int(math.Round(math.Log(to/minR) / math.Log(eta))) }

// surrogate returns a training objective over a paper surrogate. Each
// job trains a fresh trial of its configuration, with the noise stream
// keyed by the job's trial ID as in asha.BenchmarkObjective, up to the
// job's target resource mapped from the scheduler's [r, R] = [1, maxR]
// onto the surrogate's own resource range. The checkpoint it returns is
// the resource reached: a bare JSON number on the wire.
//
// When perUnit is positive the job also sleeps perUnit for every unit of
// resource it adds (to−from), standing in for real training time. busy
// accumulates the wall time spent inside the objective.
func surrogate(b *workload.Benchmark, maxR float64, perUnit time.Duration, busy *atomic.Int64) exec.Objective {
	space := b.Space()
	scale := b.MaxResource() / maxR
	return func(ctx context.Context, cfg map[string]float64, from, to float64, _ interface{}) (float64, interface{}, error) {
		t0 := time.Now()
		id, _ := exec.TrialIDFromContext(ctx)
		loss := b.NewTrial(id, space.FromMap(cfg)).Train(to * scale)
		if perUnit > 0 && to > from {
			time.Sleep(time.Duration(float64(perUnit) * (to - from)))
		}
		busy.Add(int64(time.Since(t0)))
		return loss, to, nil
	}
}

// paramNames lists a space's parameter names in index order, as the
// journal's meta record stores them.
func paramNames(space *searchspace.Space) []string {
	names := make([]string, 0, space.Dim())
	for _, p := range space.Params() {
		names = append(names, p.Name)
	}
	return names
}
