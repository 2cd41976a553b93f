package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/exec"
)

// op names one traced call boundary.
type op uint8

const (
	opDrive     op = iota // one backend.Drive call: the root of an engine span tree
	opNext                // core.Scheduler.Next
	opDone                // core.Scheduler.Done
	opReport              // core.Scheduler.Report
	opBest                // core.Scheduler.Best
	opLaunch              // backend.Backend.Launch
	opAwait               // backend.Backend.Await
	opWrite               // io.Writer.Write under state.NewWriter
	opSync                // Sync on that writer
	opObjective           // an agent's resolved objective
	numOps
)

var opNames = [numOps]string{
	"engine.drive", "core.next", "core.done", "core.report", "core.best",
	"backend.launch", "backend.await", "state.write", "state.sync", "exec.objective",
}

// span is one traced call. Times are nanoseconds since the log's epoch;
// parent indexes the enclosing span in the same log (-1 for a root).
// trial and rung key the span to a job where the call has one (-1
// otherwise); n is the call's count: completions returned by Await,
// bytes written, or 1 for a Next that declined.
type span struct {
	start, end int64
	parent     int32
	trial      int32
	n          int32
	rung       int16
	op         op
}

// spanLog keeps spans in memory until the traced run ends. Engine calls
// all come from Drive's goroutine and nest under the open root; objective
// calls come from agent goroutines and are roots of their own.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	root  int32
}

func newSpanLog(epoch time.Time) *spanLog { return &spanLog{epoch: epoch, root: -1} }

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// record appends a span that started at start and ends now, parented to
// the open root, and returns its end time.
func (l *spanLog) record(o op, start int64, trial, rung, n int) int64 {
	end := l.now()
	l.mu.Lock()
	l.spans = append(l.spans, span{start: start, end: end, parent: l.root,
		trial: int32(trial), rung: int16(rung), n: int32(n), op: o})
	l.mu.Unlock()
	return end
}

// openRoot starts a Drive span; every engine span recorded before
// closeRoot is its child.
func (l *spanLog) openRoot() {
	t := l.now()
	l.mu.Lock()
	l.root = int32(len(l.spans))
	l.spans = append(l.spans, span{start: t, parent: -1, trial: -1, op: opDrive})
	l.mu.Unlock()
}

func (l *spanLog) closeRoot() {
	t := l.now()
	l.mu.Lock()
	l.spans[l.root].end = t
	l.root = -1
	l.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children count once).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	kids := make(map[int32][]int32)
	for i, s := range spans {
		self[i] = s.end - s.start
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	type interval struct{ lo, hi int64 }
	for p, ks := range kids {
		ps := spans[p]
		ivs := make([]interval, 0, len(ks))
		for _, k := range ks {
			lo, hi := max(spans[k].start, ps.start), min(spans[k].end, ps.end)
			if hi > lo {
				ivs = append(ivs, interval{lo, hi})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, curLo, curHi int64
		for i, iv := range ivs {
			switch {
			case i == 0:
				curLo, curHi = iv.lo, iv.hi
			case iv.lo <= curHi:
				curHi = max(curHi, iv.hi)
			default:
				covered += curHi - curLo
				curLo, curHi = iv.lo, iv.hi
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		self[p] -= covered
	}
	return self
}

// writeSpans writes every span of the given logs as tab-separated lines,
// with each span's self time in the last column.
func writeSpans(path string, logs map[string]*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "log\top\tstart_ns\tend_ns\tparent\ttrial\trung\tn\tself_ns")
	names := make([]string, 0, len(logs))
	for name := range logs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		spans := logs[name].spans
		self := selfTimes(spans)
		for i, s := range spans {
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n", name, opNames[s.op],
				s.start, s.end, s.parent, s.trial, s.rung, s.n, self[i])
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// tracedScheduler times every core.Scheduler call Drive makes.
type tracedScheduler struct {
	inner core.Scheduler
	log   *spanLog
}

func (s *tracedScheduler) Next() (core.Job, bool) {
	t0 := s.log.now()
	job, ok := s.inner.Next()
	if ok {
		s.log.record(opNext, t0, job.TrialID, job.Rung, 0)
	} else {
		s.log.record(opNext, t0, -1, 0, 1)
	}
	return job, ok
}

func (s *tracedScheduler) Report(res core.Result) {
	t0 := s.log.now()
	s.inner.Report(res)
	s.log.record(opReport, t0, res.TrialID, res.Rung, 0)
}

func (s *tracedScheduler) Best() (core.Best, bool) {
	t0 := s.log.now()
	b, ok := s.inner.Best()
	s.log.record(opBest, t0, -1, 0, 0)
	return b, ok
}

func (s *tracedScheduler) Done() bool {
	t0 := s.log.now()
	d := s.inner.Done()
	s.log.record(opDone, t0, -1, 0, 0)
	return d
}

// tracedBackend times Launch and Await and measures each job's
// turnaround: from its Launch to the end of the Await that delivered it.
type tracedBackend struct {
	inner      backend.Backend
	log        *spanLog
	launchedAt map[int64]int64
	turnaround []float64 // microseconds
}

// snapshotEnabler is the optional backend method Drive calls when it
// journals (the goroutine pool implements it).
type snapshotEnabler interface{ EnableCheckpointSnapshots() }

// traceBackend wraps b so that the wrapper implements exactly the
// optional interfaces Drive type-asserts on b: without them a traced
// run would skip trial snapshots and measure a different program.
func traceBackend(b backend.Backend, log *spanLog) (backend.Backend, *tracedBackend) {
	tb := &tracedBackend{inner: b, log: log, launchedAt: make(map[int64]int64)}
	cp, isCP := b.(backend.TrialCheckpointer)
	en, isEn := b.(snapshotEnabler)
	switch {
	case isCP && isEn:
		return &tracedCheckpointEnabler{tracedCheckpointer{tb, cp}, en}, tb
	case isCP:
		return &tracedCheckpointer{tb, cp}, tb
	case isEn:
		return &tracedEnabler{tb, en}, tb
	}
	return tb, tb
}

type tracedCheckpointer struct {
	*tracedBackend
	cp backend.TrialCheckpointer
}

func (t *tracedCheckpointer) SnapshotTrials(fn func(int, float64, json.RawMessage)) {
	t.cp.SnapshotTrials(fn)
}

func (t *tracedCheckpointer) RestoreTrial(trial int, resource float64, st json.RawMessage) {
	t.cp.RestoreTrial(trial, resource, st)
}

type tracedCheckpointEnabler struct {
	tracedCheckpointer
	snapshotEnabler
}

type tracedEnabler struct {
	*tracedBackend
	snapshotEnabler
}

func (b *tracedBackend) Capacity() int { return b.inner.Capacity() }

func (b *tracedBackend) Launch(job core.Job) {
	t0 := b.log.now()
	b.inner.Launch(job)
	b.log.record(opLaunch, t0, job.TrialID, job.Rung, 0)
	b.launchedAt[backend.SeenKey(job.TrialID, job.Rung)] = t0
}

func (b *tracedBackend) Await(ctx context.Context) ([]backend.Completion, error) {
	t0 := b.log.now()
	batch, err := b.inner.Await(ctx)
	end := b.log.record(opAwait, t0, -1, 0, len(batch))
	for _, c := range batch {
		k := backend.SeenKey(c.Job.TrialID, c.Job.Rung)
		if at, ok := b.launchedAt[k]; ok {
			b.turnaround = append(b.turnaround, float64(end-at)/1e3)
			delete(b.launchedAt, k)
		}
	}
	return batch, err
}

func (b *tracedBackend) Now() float64         { return b.inner.Now() }
func (b *tracedBackend) Close() error         { return b.inner.Close() }
func (b *tracedBackend) Stats() backend.Stats { return b.inner.Stats() }

// syncer is the optional durability method state.Journal looks for on
// its writer.
type syncer interface{ Sync() error }

// tracedWriter times every journal Write.
type tracedWriter struct {
	w   io.Writer
	log *spanLog
}

func (t *tracedWriter) Write(p []byte) (int, error) {
	t0 := t.log.now()
	n, err := t.w.Write(p)
	t.log.record(opWrite, t0, -1, 0, n)
	return n, err
}

type tracedSyncWriter struct {
	*tracedWriter
	s syncer
}

func (t tracedSyncWriter) Sync() error {
	t0 := t.log.now()
	err := t.s.Sync()
	t.log.record(opSync, t0, -1, 0, 0)
	return err
}

// traceWriter wraps w, keeping its Sync method when it has one.
func traceWriter(w io.Writer, log *spanLog) io.Writer {
	tw := &tracedWriter{w: w, log: log}
	if s, ok := w.(syncer); ok {
		return tracedSyncWriter{tw, s}
	}
	return tw
}

// traceObjective times every call of obj, keyed by the job's trial and
// the rung its target resource belongs to.
func traceObjective(obj exec.Objective, log *spanLog, rungOf func(to float64) int) exec.Objective {
	return func(ctx context.Context, cfg map[string]float64, from, to float64, st interface{}) (float64, interface{}, error) {
		t0 := log.now()
		loss, next, err := obj(ctx, cfg, from, to, st)
		trial, _ := exec.TrialIDFromContext(ctx)
		log.record(opObjective, t0, trial, rungOf(to), 0)
		return loss, next, err
	}
}
