package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// sim-500 is the paper's largest scale: ASHA on the ptb-lstm surrogate
// driven by backend.Drive over cluster.Sim with 500 workers on virtual
// time. core, backend and cluster do all the work: no wire, journal or
// sleeps.
const (
	simWorkers = 500
	// simMaxTime is the virtual horizon of one rep, in units of the
	// mean time to train one configuration to R.
	simMaxTime = 3.0
	// simTarget is the ptb-lstm perplexity the incumbent must reach.
	simTarget = 100.0
)

func simRep(in repInput) (repOut, error) {
	var out repOut
	t0 := time.Now()
	bench := workload.PTBLSTM().WithNoiseSeed(in.seed)
	asha := core.NewASHA(core.ASHAConfig{
		Space: bench.Space(), RNG: xrand.New(in.seed), Eta: eta, MinResource: minR, MaxResource: bench.MaxResource(),
	})
	var sched core.Scheduler = asha
	var be backend.Backend = cluster.New(asha, bench, cluster.Options{Workers: simWorkers, MaxTime: simMaxTime, Seed: in.seed})
	if in.tr != nil {
		sched = &tracedScheduler{inner: asha, log: in.tr.engine}
		be, _ = traceBackend(be, in.tr.engine)
	}
	digest := uint64(fnvOffset)
	out.simTTT = math.NaN()
	opt := backend.Options{
		MaxTime: simMaxTime, MaxResource: bench.MaxResource(),
		OnResult: func(res core.Result, best core.Best, ok bool) {
			digest = fnvWords(digest, uint64(res.TrialID), uint64(res.Rung),
				math.Float64bits(res.Loss), math.Float64bits(res.Time))
			if ok && best.Loss <= simTarget && math.IsNaN(out.simTTT) {
				out.simTTT = res.Time
			}
		},
	}
	out.setup = time.Since(t0)

	cpu0, w0 := cpuTime(), time.Now()
	if in.tr != nil {
		in.tr.engine.openRoot()
	}
	run, err := backend.Drive(context.Background(), sched, be, opt)
	if in.tr != nil {
		in.tr.engine.closeRoot()
	}
	out.window, out.cpu = time.Since(w0), cpuTime()-cpu0
	if err != nil {
		return out, err
	}
	out.issued, out.settled, out.failed = run.IssuedJobs, run.CompletedJobs, run.FailedJobs
	out.digest = digest
	// Jobs still running at the horizon are discarded, neither settled
	// nor failed; at most one per worker.
	if cut := out.issued - out.settled - out.failed; cut < 0 || cut > simWorkers {
		out.violations = append(out.violations, fmt.Sprintf("issued %d, settled %d, failed %d: %d jobs unaccounted for", out.issued, out.settled, out.failed, cut))
	}
	return out, nil
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvWords folds 64-bit words into an FNV-1a digest, byte by byte.
func fnvWords(h uint64, words ...uint64) uint64 {
	for _, w := range words {
		for i := 0; i < 8; i++ {
			h ^= w & 0xff
			h *= fnvPrime
			w >>= 8
		}
	}
	return h
}
