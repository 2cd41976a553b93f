package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/remote"
	"repro/internal/state"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// fleet-saturate is the composition asha.Tuner builds for a Remote
// backend with a state directory, assembled here from the same layers
// so each boundary can be traced: core.NewASHA behind a core.Gate,
// backend.Drive, remote.NewBackend over remote.NewServer with metrics
// and events on, remote.ServeAgent workers on the binary stream wire,
// and a journal written through state.NewWriter to a file.

type saturateConfig struct {
	jobs     int // job budget of one rep
	capacity int // jobs in flight: the engine's capacity and the lease cap
	agents   int
	slots    int // per agent
}

func defaultSaturate() saturateConfig {
	return saturateConfig{jobs: 20000, capacity: 1024, agents: min(2, runtime.NumCPU()), slots: 4}
}

// saturateServer carries the binary-lease-throughput settings of
// cmd/ashabench: large grant batches, a deep prefetch and 2ms flushes.
func saturateServer(capacity int) (*remote.Server, error) {
	return remote.NewServer(remote.Options{
		MaxLeases: capacity,
		BatchSize: 512, Prefetch: 1024, FlushInterval: 2 * time.Millisecond,
		Metrics: true, Events: true,
	})
}

func newSaturateScheduler(bench *workload.Benchmark, seed uint64) *core.Gate {
	return core.NewGate(core.NewASHA(core.ASHAConfig{
		Space: bench.Space(), RNG: xrand.New(seed), Eta: eta, MinResource: minR, MaxResource: fleetMaxR,
	}))
}

func saturateRep(cfg saturateConfig, in repInput) (out repOut, err error) {
	t0 := time.Now()
	bench := workload.SmallCNNCIFAR().WithNoiseSeed(in.seed)
	var busy atomic.Int64
	obj := surrogate(bench, fleetMaxR, 0, &busy)
	if in.tr != nil {
		obj = traceObjective(obj, in.tr.exec, rungOf)
	}
	srv, err := saturateServer(cfg.capacity)
	if err != nil {
		return out, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var agents agentGroup
	defer func() {
		cancel()
		if aerr := agents.wait(); aerr != nil && err == nil {
			err = fmt.Errorf("agent: %w", aerr)
		}
	}()
	for i := 0; i < cfg.agents; i++ {
		agents.start(ctx, func(ctx context.Context) error {
			return remote.ServeAgent(ctx, remote.AgentOptions{
				Server: srv.URL(), Name: fmt.Sprintf("agent-%d", i), Slots: cfg.slots,
				Resolve: func(string) (exec.Objective, error) { return obj, nil },
			})
		})
	}
	if err := waitRegistered(srv, cfg.agents); err != nil {
		_ = srv.Close()
		return out, err
	}

	path := filepath.Join(in.dir, "fleet-saturate.journal")
	f, err := os.Create(path)
	if err != nil {
		_ = srv.Close()
		return out, err
	}
	var w io.Writer = f
	if in.tr != nil {
		w = traceWriter(f, in.tr.engine)
	}
	j, err := state.NewWriter(w, state.Meta{Experiment: "fleet-saturate", Algo: "asha", Seed: in.seed, Params: paramNames(bench.Space())})
	if err != nil {
		_ = f.Close()
		_ = srv.Close()
		return out, err
	}
	gate := newSaturateScheduler(bench, in.seed)
	var sched core.Scheduler = gate
	var be backend.Backend = remote.NewBackend(srv, cfg.capacity)
	var tb *tracedBackend
	if in.tr != nil {
		sched = &tracedScheduler{inner: gate, log: in.tr.engine}
		be, tb = traceBackend(be, in.tr.engine)
	}
	opt := backend.Options{
		MaxJobs: cfg.jobs, MaxResource: fleetMaxR,
		Journal: j, Gate: gate, Events: srv.EventBus(),
	}
	out.setup = time.Since(t0)

	cpu0, w0 := cpuTime(), time.Now()
	if in.tr != nil {
		in.tr.engine.openRoot()
	}
	run, err := backend.Drive(ctx, sched, be, opt)
	if in.tr != nil {
		in.tr.engine.closeRoot()
	}
	out.window, out.cpu = time.Since(w0), cpuTime()-cpu0
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return out, err
	}
	out.issued, out.settled, out.failed = run.IssuedJobs, run.CompletedJobs, run.FailedJobs
	out.busy, out.slots = time.Duration(busy.Load()), cfg.agents*cfg.slots
	c := srv.Counters()
	out.expired, out.rejected, out.granted = int(c.Expired), int(c.Rejected), int(c.Granted)
	if in.tr != nil {
		in.tr.turnaround = append(in.tr.turnaround, tb.turnaround...)
		if out.scrape, err = scrapeMetrics(srv.URL()); err != nil {
			return out, err
		}
	}
	if run.IssuedJobs != cfg.jobs {
		out.violations = append(out.violations, fmt.Sprintf("issued %d jobs, budget %d", run.IssuedJobs, cfg.jobs))
	}
	if out.settled+out.failed != out.issued {
		out.violations = append(out.violations, fmt.Sprintf("settled %d + failed %d != issued %d", out.settled, out.failed, out.issued))
	}

	// Resume: what a restarted tuner does before its first new lease.
	r0 := time.Now()
	rec, rj, err := state.RecoverFile(path)
	if err != nil {
		return out, err
	}
	out.recover = time.Since(r0)
	p0 := time.Now()
	replayed := newSaturateScheduler(bench, in.seed)
	rs, err := backend.Replay(rec, replayed, backend.Options{MaxResource: fleetMaxR})
	if err != nil {
		_ = rj.Close()
		return out, fmt.Errorf("journal does not replay: %w", err)
	}
	_, canIssue := replayed.Next()
	out.replay, out.resume = time.Since(p0), time.Since(r0)
	if err := rj.Close(); err != nil {
		return out, err
	}
	js, bad := checkJournal(rec)
	out.journals = append(out.journals, js)
	out.violations = append(out.violations, bad...)
	if fi, err := os.Stat(path); err == nil {
		out.journalBytes = fi.Size()
	}
	switch {
	case !canIssue:
		out.violations = append(out.violations, "replayed scheduler cannot issue")
	case js.issues != out.issued || js.reports != out.settled+out.failed:
		out.violations = append(out.violations, fmt.Sprintf("journal holds %d issues and %d reports, run issued %d and settled %d", js.issues, js.reports, out.issued, out.settled+out.failed))
	case rs.Run.IssuedJobs != out.issued || rs.Run.CompletedJobs != out.settled || len(rs.Relaunch) != 0:
		out.violations = append(out.violations, fmt.Sprintf("replay rebuilt %d issued, %d completed, %d in flight; run had %d, %d, 0",
			rs.Run.IssuedJobs, rs.Run.CompletedJobs, len(rs.Relaunch), out.issued, out.settled))
	}
	return out, nil
}
