package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/state"
)

func TestSelfTimesSumToRootDuration(t *testing.T) {
	// root [0,100) holds a [10,40) with a grandchild [15,25), and b
	// [50,90) with grandchildren [55,60) and [60,70).
	spans := []span{
		{start: 0, end: 100, parent: -1},
		{start: 10, end: 40, parent: 0},
		{start: 15, end: 25, parent: 1},
		{start: 50, end: 90, parent: 0},
		{start: 55, end: 60, parent: 3},
		{start: 60, end: 70, parent: 3},
	}
	self := selfTimes(spans)
	want := []int64{100 - 30 - 40, 30 - 10, 10, 40 - 15, 5, 10}
	var sum int64
	for i, s := range self {
		if s != want[i] {
			t.Errorf("span %d: self %d, want %d", i, s, want[i])
		}
		sum += s
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's duration 100", sum)
	}
	// Children from concurrent callers may overlap; the parent loses
	// the union of their intervals, not the sum.
	overlap := []span{{start: 0, end: 100, parent: -1}, {start: 10, end: 50, parent: 0}, {start: 30, end: 60, parent: 0}}
	if got := selfTimes(overlap)[0]; got != 50 {
		t.Errorf("parent of overlapping children: self %d, want 50", got)
	}
}

func TestTracedSaturateJournalsMatchUntraced(t *testing.T) {
	// One job in flight makes the run sequential, so the journal's shape
	// is fixed by the seed.
	cfg := saturateConfig{jobs: 300, capacity: 1, agents: 1, slots: 1}
	run := func(tr *tracer) journalStats {
		out, err := saturateRep(cfg, repInput{seed: 7, dir: t.TempDir(), tr: tr})
		if err != nil {
			t.Fatal(err)
		}
		if len(out.violations) > 0 || len(out.journals) != 1 {
			t.Fatalf("violations %v, %d journals", out.violations, len(out.journals))
		}
		return out.journals[0]
	}
	plain := run(nil)
	epoch := time.Now()
	tr := &tracer{engine: newSpanLog(epoch), exec: newSpanLog(epoch)}
	traced := run(tr)
	if plain != traced {
		t.Errorf("untraced journal %+v, traced %+v", plain, traced)
	}
	if plain.snapshots < 2 || plain.snapTrials == 0 {
		t.Errorf("journal has %d snapshots with %d trial entries; want periodic snapshots of the trial table", plain.snapshots, plain.snapTrials)
	}
	if len(tr.engine.spans) == 0 || len(tr.exec.spans) != cfg.jobs {
		t.Errorf("traced run recorded %d engine spans and %d objective spans", len(tr.engine.spans), len(tr.exec.spans))
	}
}

// fullBackend implements every optional interface Drive looks for.
type fullBackend struct {
	backend.Backend
	enabled bool
}

func (b *fullBackend) EnableCheckpointSnapshots()                         { b.enabled = true }
func (b *fullBackend) SnapshotTrials(func(int, float64, json.RawMessage)) {}
func (b *fullBackend) RestoreTrial(int, float64, json.RawMessage)         {}

func TestTraceWrappersKeepOptionalInterfaces(t *testing.T) {
	log := newSpanLog(time.Now())
	fb := &fullBackend{}
	wrapped, _ := traceBackend(fb, log)
	if _, ok := wrapped.(backend.TrialCheckpointer); !ok {
		t.Error("traced backend lost TrialCheckpointer")
	}
	en, ok := wrapped.(snapshotEnabler)
	if !ok {
		t.Fatal("traced backend lost EnableCheckpointSnapshots")
	}
	en.EnableCheckpointSnapshots()
	if !fb.enabled {
		t.Error("EnableCheckpointSnapshots was not forwarded")
	}
	plain, _ := traceBackend(struct{ backend.Backend }{}, log)
	if _, ok := plain.(backend.TrialCheckpointer); ok {
		t.Error("traced backend claims a TrialCheckpointer its inner backend lacks")
	}

	var f syncingBuffer
	w := traceWriter(&f, log)
	j, err := state.NewWriter(w, state.Meta{Experiment: "x"})
	if err != nil {
		t.Fatal(err)
	}
	j.SyncEach = true
	if err := j.AppendIssue(state.Issue{Trial: 1, Inherit: -1}); err != nil {
		t.Fatal(err)
	}
	if f.syncs != 1 {
		t.Errorf("journal synced %d times through the traced writer, want 1", f.syncs)
	}
	if _, ok := traceWriter(&bytes.Buffer{}, log).(syncer); ok {
		t.Error("traced writer claims Sync its inner writer lacks")
	}
}

type syncingBuffer struct {
	bytes.Buffer
	syncs int
}

func (b *syncingBuffer) Sync() error { b.syncs++; return nil }

func TestCheckJournalFlagsBrokenDelivery(t *testing.T) {
	issue := func(trial, rung int) state.Record {
		return state.Record{V: state.Version, Issue: &state.Issue{Trial: trial, Rung: rung}}
	}
	report := func(trial, rung int, failed bool) state.Record {
		return state.Record{V: state.Version, Report: &state.Report{Trial: trial, Rung: rung, Failed: failed}}
	}
	for _, tc := range []struct {
		name    string
		records []state.Record
		want    string
	}{
		{"clean with a retry", []state.Record{issue(1, 0), report(1, 0, true), issue(1, 0), report(1, 0, false)}, ""},
		{"report without issue", []state.Record{issue(1, 0), report(2, 0, false), report(1, 0, false)}, "without an outstanding issue"},
		{"settled twice", []state.Record{issue(1, 0), issue(1, 0), report(1, 0, false), report(1, 0, false)}, "settled twice"},
		{"issue never reported", []state.Record{issue(1, 0), issue(1, 1), report(1, 0, false)}, "without a report"},
	} {
		_, bad := checkJournal(&state.Recovered{Meta: state.Meta{Experiment: "x"}, Records: tc.records})
		got := strings.Join(bad, "; ")
		if (tc.want == "") != (got == "") || !strings.Contains(got, tc.want) {
			t.Errorf("%s: violations %q, want %q", tc.name, got, tc.want)
		}
	}
}
