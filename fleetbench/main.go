// Command fleetbench is the repository's end-to-end benchmark. It runs
// one named workload for a fixed wall-clock window, checks the outputs
// against the system's correctness contracts, and prints every metric by
// name and unit, then one JSON result line. With -trace 1 it also times
// the calls into each layer from this package's decorators and prints the
// per-layer metrics and the engine's per-job ledger. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
	"unsafe"
)

// repInput is one repetition's input: the seed derived for it from the
// run's seed, a scratch directory, and the tracer when the rep is traced.
type repInput struct {
	seed uint64
	dir  string
	tr   *tracer
}

// tracer collects the spans of a run's traced reps.
type tracer struct {
	engine, exec *spanLog
	turnaround   []float64 // microseconds, Launch to delivery by Await
}

// repOut is what one rep measured. Fields a workload does not have stay
// zero.
type repOut struct {
	issued, settled, failed int
	setup, window, cpu      time.Duration
	// ttt is the Manager's time from the start of its run until every
	// experiment's incumbent reached its target, in seconds; NaN when one
	// never did.
	ttt   float64
	busy  time.Duration // objective wall time, all slots
	slots int

	expired, rejected, granted int
	scrape                     promScrape

	recover, replay, resume time.Duration
	journals                []journalStats
	journalBytes            int64

	simTTT     float64 // virtual time to target
	digest     uint64  // completion digest
	tenantBusy map[string]time.Duration

	violations []string
	gostats    goStats
	heapPeakMB float64
}

type workloadDef struct {
	rep func(repInput) (repOut, error)
	// minReps is the least number of reps a run makes, however short
	// its window.
	minReps int
	// deterministic marks a workload whose completions must repeat
	// exactly for a repeated input.
	deterministic bool
}

// simInputs is the number of distinct inputs sim-500's virtual time to
// target is taken over, so that it is fixed by the seed alone.
const simInputs = 16

// maxTracedReps bounds the spans a traced run keeps in memory.
const maxTracedReps = 2

var workloads = map[string]workloadDef{
	"fleet-saturate": {rep: func(in repInput) (repOut, error) { return saturateRep(defaultSaturate(), in) }, minReps: 3},
	"fleet-tenants":  {rep: tenantsRep, minReps: 3},
	"sim-500":        {rep: simRep, minReps: simInputs, deterministic: true},
}

func main() {
	name := flag.String("workload", "", "workload to run: fleet-saturate, fleet-tenants or sim-500")
	seed := flag.Uint64("seed", 1, "seed every input of the run derives from")
	seconds := flag.Int("seconds", 40, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 traces the calls into each layer and prints per-layer metrics")
	out := flag.String("out", ".bench_build/fleetbench", "directory for journals and span files")
	revision := flag.String("revision", "unknown", "source revision to stamp the result with")
	flag.Parse()
	def, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "fleetbench: need -workload (fleet-saturate, fleet-tenants, sim-500), -seconds >= 1 and -trace 0|1\n")
		os.Exit(2)
	}
	// One P for the whole process: the agents share the tuner's cores
	// here, and a run that keeps both vCPUs of a small shared VM busy
	// reads the hypervisor's steal more than the program. With one P,
	// wall time tracks the program's own cost.
	runtime.GOMAXPROCS(1)
	ctx := newRunContext(*name, *revision, *seed, *seconds, *trace == 1)
	stat0 := readCPUStat()
	res, err := run(def, ctx, *out)
	ctx.StealFrac = readCPUStat().stealSince(stat0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res.print(ctx)
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the JSON line the run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	violations []string
	lines      []string // human-readable report, in order
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name string, v float64, unit, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.lines = append(r.lines, fmt.Sprintf("  %-28s %14.6g %-6s %s", name, v, unit, note))
}

func (r *result) print(ctx runContext) {
	for _, l := range r.lines {
		fmt.Println(l)
	}
	for _, v := range r.violations {
		fmt.Println("VIOLATION", v)
	}
	stamp, _ := json.Marshal(ctx)
	fmt.Printf("context %s\n", stamp)
	line, _ := json.Marshal(r)
	fmt.Println(string(line))
}

// subSeed derives rep i's seed from the run's seed (splitmix64).
func subSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func run(def workloadDef, ctx runContext, outDir string) (*result, error) {
	scratch := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	var tr *tracer
	if ctx.Traced {
		epoch := time.Now()
		tr = &tracer{engine: newSpanLog(epoch), exec: newSpanLog(epoch)}
	}
	rep := func(i int, traced bool) (repOut, error) {
		in := repInput{seed: subSeed(ctx.Seed, i), dir: filepath.Join(scratch, fmt.Sprintf("rep-%d", i))}
		if traced {
			in.tr = tr
		}
		if err := os.MkdirAll(in.dir, 0o755); err != nil {
			return repOut{}, err
		}
		defer os.RemoveAll(in.dir)
		// Start every rep from a collected heap, so garbage from the
		// last rep (a resume decodes a whole journal) is not collected
		// inside this rep's window.
		runtime.GC()
		var hp *heapPeak
		if !traced {
			hp = startHeapPeak()
		}
		g0 := readGoStats()
		out, err := def.rep(in)
		out.gostats = readGoStats().sub(g0)
		if hp != nil {
			out.heapPeakMB = hp.finish()
			if tr != nil {
				// Spans held from earlier traced reps are not the
				// program's heap.
				held := (cap(tr.engine.spans) + cap(tr.exec.spans)) * int(unsafe.Sizeof(span{}))
				out.heapPeakMB -= float64(held) / (1 << 20)
			}
		}
		if err != nil {
			return out, fmt.Errorf("rep %d: %w", i, err)
		}
		return out, nil
	}

	var all, untraced, traced []repOut
	deadline := time.Now().Add(time.Duration(ctx.Seconds) * time.Second)
	for i := 0; len(all) < def.minReps || len(untraced) == 0 || (ctx.Traced && len(traced) == 0) || time.Now().Before(deadline); i++ {
		isTraced := ctx.Traced && i%2 == 1 && len(traced) < maxTracedReps
		out, err := rep(i, isTraced)
		if err != nil {
			return nil, err
		}
		all = append(all, out)
		if isTraced {
			traced = append(traced, out)
		} else {
			untraced = append(untraced, out)
		}
	}

	res := &result{Metrics: map[string]metric{}}
	for i, o := range all {
		res.Attempted += o.issued
		res.Failed += o.failed + o.expired + o.rejected
		for _, v := range o.violations {
			res.violations = append(res.violations, fmt.Sprintf("rep %d: %s", i, v))
		}
	}
	if def.deterministic {
		// Run the first two inputs again, untraced, and require identical
		// completions: fixed-seed determinism and, in a traced run (whose
		// second rep was traced), proof that tracing does not change what
		// the engine decides.
		for _, i := range []int{0, 1} {
			if i >= len(all) {
				continue
			}
			again, err := rep(i, false)
			if err != nil {
				return nil, err
			}
			if again.digest != all[i].digest {
				res.violations = append(res.violations, fmt.Sprintf("rep %d repeated with the same seed gave completion digest %016x, first run %016x", i, again.digest, all[i].digest))
			}
		}
	}
	res.Correct = len(res.violations) == 0
	res.lines = append(res.lines, fmt.Sprintf("fleetbench %s: %d reps (%d traced), %d jobs issued",
		ctx.Workload, len(all), len(traced), res.Attempted))
	if ctx.Traced {
		layerMetrics(res, ctx.Workload, all, untraced, traced, tr)
		if err := writeSpans(filepath.Join(outDir, "spans-"+ctx.Workload+".tsv"),
			map[string]*spanLog{"engine": tr.engine, "exec": tr.exec}); err != nil {
			return nil, err
		}
		res.lines = append(res.lines, "spans written to "+filepath.Join(outDir, "spans-"+ctx.Workload+".tsv"))
	} else {
		endToEnd(res, untraced)
	}
	return res, nil
}

func perRep(reps []repOut, f func(repOut) float64) []float64 {
	xs := make([]float64, 0, len(reps))
	for _, o := range reps {
		xs = append(xs, f(o))
	}
	return xs
}

func jobsPerSec(o repOut) float64 { return float64(o.settled) / o.window.Seconds() }

// endToEnd reports the metrics a user sees over the run's untraced reps,
// with the reps' quartiles beside each. Throughput is the reps' slower
// quartile (jobs_per_s their lower, cpu_us_per_job their upper quartile).
// On a shared host the same rep runs half again as fast in some seconds
// as in others, most likely as other guests come and go on the physical
// core, and the share of fast seconds in a window drifts from run to run.
// The median of a run moves with that share; the slower quartile, the
// contended speed, moves less. setup_s is the median.
func endToEnd(res *result, reps []repOut) {
	set := func(name string, xs []float64, q float64, stat, unit string) {
		note := fmt.Sprintf("%s of %d reps", stat, len(xs))
		if len(xs) >= 4 {
			note += fmt.Sprintf("; quartiles %.6g, %.6g, %.6g", quantile(xs, 0.25), median(xs), quantile(xs, 0.75))
		}
		res.set(name, quantile(xs, q), unit, note)
	}
	set("jobs_per_s", perRep(reps, jobsPerSec), 0.25, "lower quartile", "1/s")
	set("cpu_us_per_job", perRep(reps, func(o repOut) float64 {
		return float64(o.cpu.Microseconds()) / float64(o.settled)
	}), 0.75, "upper quartile", "us")
	set("setup_s", perRep(reps, func(o repOut) float64 { return o.setup.Seconds() }), 0.5, "median", "s")
	res.set("max_rss_mb", maxRSSMB(), "MB", "peak of the process")
}

func sum(reps []repOut, f func(repOut) float64) float64 {
	t := 0.0
	for _, o := range reps {
		t += f(o)
	}
	return t
}

// layerMetrics reports every per-layer metric from the traced reps'
// spans and counters (runtime and journal figures from the untraced
// reps, which tracing does not disturb). A metric of a layer the
// workload does not run reads 0.
func layerMetrics(res *result, workload string, all, untraced, traced []repOut, tr *tracer) {
	spans := tr.engine.spans
	self := selfTimes(spans)
	byOp := make([][]float64, numOps)
	var opTotal [numOps]float64 // inside Drive only
	var rootTotal, rootSelf float64
	var declined, nexts, promoted, awaited float64
	for i, s := range spans {
		d := float64(s.end - s.start)
		byOp[s.op] = append(byOp[s.op], d)
		if s.op == opDrive {
			rootTotal += d
			rootSelf += float64(self[i])
			continue
		}
		if s.parent >= 0 {
			opTotal[s.op] += d
		}
		switch s.op {
		case opNext:
			nexts++
			if s.n == 1 {
				declined++
			} else if s.rung > 0 {
				promoted++
			}
		case opAwait:
			awaited += float64(s.n)
		}
	}
	for _, s := range tr.exec.spans {
		byOp[s.op] = append(byOp[s.op], float64(s.end-s.start))
	}
	tSettled := sum(traced, func(o repOut) float64 { return float64(o.settled) })
	uSettled := sum(untraced, func(o repOut) float64 { return float64(o.settled) })
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	tm := make([]timing, numOps)
	for o := range byOp {
		tm[o] = summarize(byOp[o])
	}
	note := func(t timing) string {
		return fmt.Sprintf("p50 %.0f, p%g %.0f, n=%d", t.p50, 100*t.tailQ, t.tail, t.n)
	}
	timed := func(name string, o op) {
		res.set(name+".p50", tm[o].p50, "ns", note(tm[o]))
		res.set(name+".p99", tm[o].p99, "ns", note(tm[o]))
	}
	coreTotal := opTotal[opNext] + opTotal[opDone] + opTotal[opReport] + opTotal[opBest]
	writeTotal := opTotal[opWrite] + opTotal[opSync]

	timed("core.next_ns", opNext)
	timed("core.report_ns", opReport)
	res.set("core.best_ns.p50", tm[opBest].p50, "ns", note(tm[opBest]))
	res.set("core.busy_frac", ratio(coreTotal, rootTotal), "ratio", "scheduler time / engine time")
	res.set("core.declined_frac", ratio(declined, nexts), "ratio", "Next with no job / Next calls")
	res.set("core.promoted_frac", ratio(promoted, nexts-declined), "ratio", "issued jobs above rung 0 / issued jobs")

	timed("backend.launch_ns", opLaunch)
	res.set("backend.batch_mean", ratio(awaited, float64(tm[opAwait].n)), "count", "completions per Await")
	res.set("backend.await_wait_frac", ratio(opTotal[opAwait], rootTotal), "ratio", "time in Await / engine time")
	res.set("backend.self_ns_per_job", ratio(rootSelf, tSettled), "ns", "engine time outside every traced call, per job")
	res.set("backend.replay_s", median(perRep(untraced, func(o repOut) float64 { return o.replay.Seconds() })), "s", "")
	res.set("state.recover_s", median(perRep(untraced, func(o repOut) float64 { return o.recover.Seconds() })), "s", "")
	res.set("state.resume_s", median(perRep(untraced, func(o repOut) float64 { return o.resume.Seconds() })), "s", "recover + replay until the scheduler can issue")

	timed("state.write_ns", opWrite)
	res.set("state.write_frac", ratio(writeTotal, rootTotal), "ratio", "journal write time / engine time")
	var records, bytes float64
	for _, o := range untraced {
		for _, j := range o.journals {
			records += float64(j.records)
		}
		bytes += float64(o.journalBytes)
	}
	res.set("state.records_per_job", ratio(records, uSettled), "count", "")
	res.set("state.bytes_per_job", ratio(bytes, uSettled), "B", "")
	res.set("state.syncs_per_job", ratio(float64(tm[opSync].n), tSettled), "count", "")

	ta := summarize(tr.turnaround)
	res.set("remote.turnaround_us.p50", ta.p50, "us", fmt.Sprintf("Launch to delivery by Await; %s", note(ta)))
	res.set("remote.turnaround_us.p99", ta.p99, "us", "")
	var settle, queue histogram
	for _, o := range traced {
		settle = settle.merge(o.scrape.histogram("asha_report_settle_seconds"))
		queue = queue.merge(o.scrape.histogram("asha_queue_wait_seconds"))
	}
	res.set("remote.settle_us.p50", settle.quantileUs(0.5), "us", "from /metrics")
	res.set("remote.settle_us.p99", settle.quantileUs(0.99), "us", "from /metrics")
	res.set("remote.queue_wait_us.p50", queue.quantileUs(0.5), "us", "from /metrics")
	res.set("remote.queue_wait_us.p99", queue.quantileUs(0.99), "us", "from /metrics")
	expired := sum(traced, func(o repOut) float64 { return float64(o.expired) })
	rejected := sum(traced, func(o repOut) float64 { return float64(o.rejected) })
	res.set("remote.expired_leases", expired, "count", "")
	res.set("remote.rejected_reports", rejected, "count", "")
	res.set("remote.grants_per_job", ratio(sum(traced, func(o repOut) float64 { return float64(o.granted) }), tSettled), "count", "")
	res.set("remote.failed_frac", ratio(sum(traced, func(o repOut) float64 { return float64(o.failed) })+expired+rejected,
		sum(traced, func(o repOut) float64 { return float64(o.issued) })), "ratio", "(failed + expired + rejected) / issued")

	timed("exec.objective_ns", opObjective)
	res.set("exec.calls_per_job", ratio(float64(tm[opObjective].n), tSettled), "count", "")
	res.set("exec.worker_util", ratio(sum(untraced, func(o repOut) float64 { return o.busy.Seconds() }),
		sum(untraced, func(o repOut) float64 { return float64(o.slots) * o.window.Seconds() })), "ratio", "objective busy / (slots x window)")

	// On sim-500 the backend Drive awaits is cluster.Sim itself.
	var cl [numOps]timing
	clBatch, simTTT := 0.0, 0.0
	if workload == "sim-500" {
		cl = [numOps]timing{opAwait: tm[opAwait], opLaunch: tm[opLaunch]}
		clBatch = ratio(awaited, float64(tm[opAwait].n))
		simTTT = median(perRep(all[:simInputs], func(o repOut) float64 {
			if math.IsNaN(o.simTTT) {
				return simMaxTime // never reached: censored at the horizon
			}
			return o.simTTT
		}))
	}
	res.set("cluster.await_ns.p50", cl[opAwait].p50, "ns", "")
	res.set("cluster.await_ns.p99", cl[opAwait].p99, "ns", "")
	res.set("cluster.batch_mean", clBatch, "count", "")
	res.set("cluster.launch_ns.p50", cl[opLaunch].p50, "ns", "")
	res.set("cluster.sim_time_to_target", simTTT, "vtime", fmt.Sprintf("median over the first %d inputs", simInputs))

	res.set("manager.tenant_share_err", tenantShareErr(untraced), "ratio", "max |tenant exec share - quota share|")
	missed := 0
	ttt := 0.0
	if workload == "fleet-tenants" {
		ttt = median(perRep(untraced, func(o repOut) float64 {
			if math.IsNaN(o.ttt) {
				// A rep that never reached a target counts as reaching it
				// at the end of its run.
				missed++
				return (o.setup + o.window).Seconds()
			}
			return o.ttt
		}))
	}
	res.set("manager.time_to_target_s", ttt, "s", fmt.Sprintf("slowest experiment; %d reps missed a target", missed))

	var g goStats
	peak := 0.0
	for _, o := range untraced {
		g = g.add(o.gostats)
		peak = max(peak, o.heapPeakMB)
	}
	res.set("go.allocs_per_job", ratio(g.allocs, uSettled), "count", "")
	res.set("go.alloc_bytes_per_job", ratio(g.allocBytes, uSettled), "B", "")
	res.set("go.gc_cpu_frac", ratio(g.gcCPU, g.totalCPU), "ratio", "")
	res.set("go.heap_peak_mb", peak, "MB", "")

	uJPS := median(perRep(untraced, jobsPerSec))
	tJPS := median(perRep(traced, jobsPerSec))
	res.set("trace.overhead_frac", 1-ratio(tJPS, uJPS), "ratio", "1 - traced / untraced jobs_per_s")

	if rootTotal > 0 {
		per := func(x float64) float64 { return x / tSettled }
		ledger := per(coreTotal) + per(opTotal[opLaunch]) + per(opTotal[opAwait]) + per(writeTotal) + per(rootSelf)
		res.lines = append(res.lines,
			"engine ledger, ns per settled job (traced reps):",
			fmt.Sprintf("  core %.0f + launch %.0f + await wait %.0f + journal write %.0f + engine self %.0f = %.0f",
				per(coreTotal), per(opTotal[opLaunch]), per(opTotal[opAwait]), per(writeTotal), per(rootSelf), ledger),
			fmt.Sprintf("  traced 1/jobs_per_s %.0f, untraced 1/jobs_per_s %.0f: tracing overhead %.0f ns per job",
				1e9/tJPS, 1e9/uJPS, 1e9/tJPS-1e9/uJPS))
	}
}

// tenantShareErr is the largest gap between a tenant's share of the
// objective time and its quota share.
func tenantShareErr(reps []repOut) float64 {
	busy := map[string]float64{}
	total := 0.0
	for _, o := range reps {
		for t, d := range o.tenantBusy {
			busy[t] += d.Seconds()
			total += d.Seconds()
		}
	}
	if total == 0 {
		return 0
	}
	weights := 0
	for _, w := range tenantQuotas {
		weights += w
	}
	tenants := make([]string, 0, len(tenantQuotas))
	for t := range tenantQuotas {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	worst := 0.0
	for _, t := range tenants {
		worst = max(worst, math.Abs(busy[t]/total-float64(tenantQuotas[t])/float64(weights)))
	}
	return worst
}
