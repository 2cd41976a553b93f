package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	asha "repro"
	"repro/internal/exec"
	"repro/internal/remote"
	"repro/internal/state"
	"repro/internal/workload"
)

// fleet-tenants is the asha.Manager path behind ashad: three ASHA
// experiments of two tenants, dispatched by the Manager's own loop to a
// fleet through WithManagerRemote, journaled through
// WithManagerStateDir, and fair-shared by tenant quota.

type tenantExp struct {
	name  string
	bench func() *workload.Benchmark
	jobs  int
	// target is the validation loss the incumbent must reach.
	target float64
}

// Budgets follow the quotas: team-a's two experiments share three
// quarters of the slots, so each gets 1.5x team-b's budget and every
// tenant runs for about the same time.
var tenantExps = []tenantExp{
	{"team-a/cifar-cnn", workload.SmallCNNCIFAR, 1500, 0.25},
	{"team-a/svhn-cnn", workload.SmallCNNSVHN, 1500, 0.06},
	{"team-b/ptb-lstm", workload.PTBLSTM, 1000, 110},
}

var tenantQuotas = map[string]int{"team-a": 3, "team-b": 1}

const (
	tenantSlots    = 8 // per agent
	tenantPrefetch = 8
	// tenantUnit is the sleep per unit of resource a job adds: an
	// average job (3 units) takes ~3ms, so 16 slots settle ~5k jobs/s
	// and the control plane stays well under one core.
	tenantUnit = time.Millisecond
)

func tenantsRep(in repInput) (out repOut, err error) {
	t0 := time.Now()
	agents := min(2, runtime.NumCPU())
	var first atomic.Int64 // first objective start, ns after t0
	busy := make([]atomic.Int64, len(tenantExps))
	objs := make(map[string]asha.Objective, len(tenantExps))
	var srvURL string
	urls := make(chan string, 1)
	m := asha.NewManager(
		asha.WithManagerWorkers(agents*(tenantSlots+tenantPrefetch)),
		asha.WithManagerRemote(asha.Remote{
			BatchSize: 16, Prefetch: tenantPrefetch, Metrics: true, Events: true,
			OnListen: func(u string) { srvURL = u; urls <- u },
		}),
		asha.WithManagerStateDir(in.dir),
		asha.WithManagerTenantQuotas(tenantQuotas),
	)
	for i, e := range tenantExps {
		b := e.bench().WithNoiseSeed(in.seed + uint64(i))
		obj := surrogate(b, fleetMaxR, tenantUnit, &busy[i])
		if in.tr != nil {
			obj = traceObjective(obj, in.tr.exec, rungOf)
		}
		objs[e.name] = markFirst(obj, t0, &first)
		if err := m.Add(asha.Experiment{
			Name: e.name, Space: b.Space(), Seed: in.seed + uint64(i), MaxJobs: e.jobs,
			Algorithm: asha.ASHA{Eta: eta, MinResource: minR, MaxResource: fleetMaxR},
		}); err != nil {
			return out, err
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	var fleet agentGroup
	defer func() {
		cancel()
		if aerr := fleet.wait(); aerr != nil && err == nil {
			err = fmt.Errorf("agent: %w", aerr)
		}
	}()
	fleet.start(ctx, func(ctx context.Context) error {
		var u string
		select {
		case u = <-urls:
		case <-ctx.Done():
			return nil
		}
		var g agentGroup
		for i := 0; i < agents; i++ {
			g.start(ctx, func(ctx context.Context) error {
				return asha.ServeRemoteWorker(ctx, asha.RemoteWorker{
					Server: u, Name: fmt.Sprintf("agent-%d", i), Slots: tenantSlots, Objectives: objs,
				})
			})
		}
		return g.wait()
	})

	cpu0 := cpuTime()
	results, err := m.Run(ctx)
	end, cpu := time.Since(t0), cpuTime()-cpu0
	if err != nil {
		return out, err
	}
	out.setup = time.Duration(first.Load())
	out.window, out.cpu = end-out.setup, cpu
	out.slots = agents * tenantSlots
	out.tenantBusy = map[string]time.Duration{}
	out.ttt = 0
	for i, e := range tenantExps {
		d := time.Duration(busy[i].Load())
		out.busy += d
		out.tenantBusy[remote.TenantOf(e.name)] += d
		res := results[e.name]
		if res == nil {
			out.violations = append(out.violations, e.name+": no result")
			continue
		}
		out.settled += res.CompletedJobs
		reached := math.NaN()
		for _, h := range res.History {
			if h.Loss <= e.target {
				reached = h.Seconds
				break
			}
		}
		out.ttt = math.Max(out.ttt, reached) // NaN if any experiment missed
	}
	if in.tr != nil {
		if out.scrape, err = scrapeMetrics(srvURL); err != nil {
			return out, err
		}
		out.expired = int(out.scrape["asha_leases_expired_total"])
		out.rejected = int(out.scrape["asha_reports_rejected_total"])
		out.granted = int(out.scrape["asha_leases_granted_total"])
	}
	return out, checkTenantJournals(in.dir, results, &out)
}

// markFirst records when the first job of the rep starts executing.
func markFirst(obj exec.Objective, t0 time.Time, first *atomic.Int64) asha.Objective {
	return func(ctx context.Context, cfg asha.Config, from, to float64, st interface{}) (float64, interface{}, error) {
		if first.Load() == 0 {
			first.CompareAndSwap(0, int64(time.Since(t0)))
		}
		return obj(ctx, cfg, from, to, st)
	}
}

// checkTenantJournals recovers every experiment's journal, applies the
// exactly-once checks, and requires each experiment to have issued and
// settled its whole budget.
func checkTenantJournals(dir string, results map[string]*asha.Result, out *repOut) error {
	budgets := make(map[string]int, len(tenantExps))
	for _, e := range tenantExps {
		budgets[e.name] = e.jobs
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.journal"))
	if err != nil {
		return err
	}
	if len(paths) != len(tenantExps) {
		out.violations = append(out.violations, fmt.Sprintf("%d journals for %d experiments", len(paths), len(tenantExps)))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rec, err := state.Recover(data)
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		js, bad := checkJournal(rec)
		out.journals = append(out.journals, js)
		out.journalBytes += int64(len(data))
		out.violations = append(out.violations, bad...)
		out.issued += js.issues
		out.failed += js.failed
		name := rec.Meta.Experiment
		if js.issues != budgets[name] || js.reports != js.issues {
			out.violations = append(out.violations, fmt.Sprintf("%s: %d issued and %d reported of a %d-job budget", name, js.issues, js.reports, budgets[name]))
		}
		if r := results[name]; r != nil && r.CompletedJobs != js.reports-js.failed {
			out.violations = append(out.violations, fmt.Sprintf("%s: result counts %d completed, journal %d", name, r.CompletedJobs, js.reports-js.failed))
		}
	}
	if out.settled+out.failed != out.issued {
		out.violations = append(out.violations, fmt.Sprintf("settled %d + failed %d != issued %d", out.settled, out.failed, out.issued))
	}
	return nil
}
