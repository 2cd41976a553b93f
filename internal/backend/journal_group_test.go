package backend_test

// Grouped journal writes: Drive stages a fill pass's issue records and an
// Await batch's report records and writes each group with one Write.
// These tests pin down what that must not change — the journal's bytes
// (still encoding/json's, line for line), the write-ahead order under a
// write that dies mid-group, and the cost of SyncEach (one sync per
// group, not per record).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"sort"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/state"
)

// lockstep runs a goroutine pool in waves: Await returns only once every
// launched job has completed, sorted by (trial, rung). Every fill pass
// after the first wave then refills the whole pool in one issue group,
// and the run's decisions do not depend on goroutine timing. The
// embedded pool supplies checkpoints for snapshots.
type lockstep struct {
	*exec.Pool
	pending  int
	awaits   int
	launched map[[2]int]int
	batch    []backend.Completion
}

func newLockstep(ctx context.Context, workers int) *lockstep {
	return &lockstep{Pool: exec.NewPool(ctx, parityObjective, workers), launched: make(map[[2]int]int)}
}

func (l *lockstep) Launch(job core.Job) {
	l.pending++
	l.launched[[2]int{job.TrialID, job.Rung}]++
	l.Pool.Launch(job)
}

func (l *lockstep) Await(ctx context.Context) ([]backend.Completion, error) {
	l.awaits++
	l.batch = l.batch[:0]
	for len(l.batch) < l.pending {
		got, err := l.Pool.Await(ctx)
		if err != nil {
			return nil, err
		}
		if len(got) == 0 {
			break
		}
		l.batch = append(l.batch, got...)
	}
	l.pending -= len(l.batch)
	sort.Slice(l.batch, func(i, k int) bool {
		a, b := l.batch[i].Job, l.batch[k].Job
		return a.TrialID < b.TrialID || a.TrialID == b.TrialID && a.Rung < b.Rung
	})
	return l.batch, nil
}

func TestDriveJournalIsEncodingJSONLineForLine(t *testing.T) {
	var buf bytes.Buffer
	meta := state.Meta{Experiment: "parity", Algo: "asha", Seed: paritySeed, Params: []string{"lr", "momentum", "width"}}
	journal, err := state.NewWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := backend.Drive(ctx, parityScheduler(paritySpace()), newLockstep(ctx, 4), backend.Options{
		MaxJobs: 200, Journal: journal, SnapshotEvery: paritySnapEvery,
	}); err != nil {
		t.Fatal(err)
	}
	rec, err := state.Recover(buf.Bytes())
	if err != nil || rec.Truncated {
		t.Fatalf("recover: %v (truncated %v)", err, rec != nil && rec.Truncated)
	}
	var want bytes.Buffer
	records := append([]state.Record{{V: state.Version, Meta: &rec.Meta}}, rec.Records...)
	snaps := 0
	for i := range records {
		line, err := json.Marshal(&records[i])
		if err != nil {
			t.Fatal(err)
		}
		want.Write(append(line, '\n'))
		if s := records[i].Snap; s != nil && len(s.Trials) > 0 && len(s.Trials[0].State) > 0 {
			snaps++
		}
	}
	if snaps == 0 {
		t.Fatal("no snapshot carried a checkpoint; the RawMessage path went untested")
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		a, b := buf.Bytes(), want.Bytes()
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		t.Fatalf("journal differs from encoding/json's re-encoding at byte %d of %d:\n got ...%q\nwant ...%q",
			i, len(a), a[i:min(i+80, len(a))], b[i:min(i+80, len(b))])
	}
}

// groupFailWriter passes writes through until the first write, at or
// after write number from, that carries two or more issue records. That
// write it tears: it keeps the group's first line whole plus part of the
// second, and either fails or, with silent, reports a short write
// without an error. It remembers the (trial, rung) of every issue in the
// torn group.
type groupFailWriter struct {
	buf    bytes.Buffer
	from   int
	writes int
	silent bool
	failed bool
	group  [][2]int
}

func (w *groupFailWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.failed {
		return 0, errors.New("injected write failure")
	}
	lines := bytes.SplitAfter(p, []byte("\n"))
	issues := 0
	for _, l := range lines {
		if bytes.HasPrefix(l, []byte(`{"v":1,"issue":`)) {
			issues++
		}
	}
	if w.writes < w.from || issues < 2 {
		return w.buf.Write(p)
	}
	w.failed = true
	for _, l := range lines {
		var r state.Record
		if json.Unmarshal(l, &r) == nil && r.Issue != nil {
			w.group = append(w.group, [2]int{r.Issue.Trial, r.Issue.Rung})
		}
	}
	n := len(lines[0]) + len(lines[1])/2
	w.buf.Write(p[:n])
	if w.silent {
		return n, nil
	}
	return n, errors.New("injected write failure")
}

func TestDriveJournalFailureMidIssueGroup(t *testing.T) {
	for _, silent := range []bool{false, true} {
		name := map[bool]string{false: "write-error", true: "short-write"}[silent]
		t.Run(name, func(t *testing.T) {
			const jobs = 150
			w := &groupFailWriter{from: 12, silent: silent}
			journal, err := state.NewWriter(w, state.Meta{Experiment: "parity", Seed: paritySeed})
			if err != nil {
				t.Fatal(err)
			}
			space := paritySpace()
			ctx := context.Background()
			ls := newLockstep(ctx, 4)
			_, err = backend.Drive(ctx, parityScheduler(space), ls, backend.Options{
				MaxJobs: jobs, Journal: journal, SnapshotEvery: paritySnapEvery,
			})
			if !w.failed {
				t.Fatal("the run wrote no multi-record issue group to tear")
			}
			if err == nil || !strings.Contains(err.Error(), "journal") {
				t.Fatalf("run survived a torn issue group: %v", err)
			}
			if silent && !errors.Is(err, io.ErrShortWrite) {
				t.Fatalf("silent short write reported as %v, want io.ErrShortWrite", err)
			}
			if !errors.Is(journal.Err(), err) {
				t.Fatalf("journal error %v is not the run's sticky error %v", journal.Err(), err)
			}
			for _, key := range w.group {
				if ls.launched[key] > 0 {
					t.Errorf("trial %d rung %d launched although its issue group never committed", key[0], key[1])
				}
			}

			// The group's first line survived whole: recovery keeps it, so
			// resume relaunches that never-launched job exactly once.
			rec, err := state.Recover(w.buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Truncated {
				t.Fatal("torn group left no torn tail")
			}
			sched2 := parityScheduler(space)
			rs, err := backend.Replay(rec, sched2, backend.Options{})
			if err != nil {
				t.Fatal(err)
			}
			relaunched := false
			for _, job := range rs.Relaunch {
				if [2]int{job.TrialID, job.Rung} == w.group[0] {
					relaunched = true
				}
			}
			if !relaunched {
				t.Errorf("the torn group's surviving issue (trial %d rung %d) is not relaunched", w.group[0][0], w.group[0][1])
			}
			buf := bytes.NewBuffer(append([]byte{}, w.buf.Bytes()[:rec.CleanOffset]...))
			journal2 := state.ReopenWriter(buf, 1+len(rec.Records))
			run, err := backend.Drive(ctx, sched2, newLockstep(ctx, 4), backend.Options{
				MaxJobs: jobs, Journal: journal2, SnapshotEvery: paritySnapEvery, Resume: rs,
			})
			if err != nil {
				t.Fatal(err)
			}
			if run.IssuedJobs != jobs || run.CompletedJobs != jobs {
				t.Fatalf("resumed run issued %d / completed %d, want %d", run.IssuedJobs, run.CompletedJobs, jobs)
			}
			assertExactlyOnce(t, tallyJournal(t, buf.Bytes()), jobs)
		})
	}
}

// syncCounter counts writes and syncs.
type syncCounter struct {
	bytes.Buffer
	writes, syncs int
}

func (w *syncCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func (w *syncCounter) Sync() error {
	w.syncs++
	return nil
}

func TestDriveSyncEachSyncsOncePerGroup(t *testing.T) {
	w := &syncCounter{}
	journal, err := state.NewWriter(w, state.Meta{Experiment: "parity", Seed: paritySeed})
	if err != nil {
		t.Fatal(err)
	}
	journal.SyncEach = true
	ctx := context.Background()
	ls := newLockstep(ctx, 4)
	if _, err := backend.Drive(ctx, parityScheduler(paritySpace()), ls, backend.Options{
		MaxJobs: 200, Journal: journal,
	}); err != nil {
		t.Fatal(err)
	}
	rec, err := state.Recover(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, r := range rec.Records {
		if r.Snap != nil {
			snaps++
		}
	}
	// At most one fill pass per Await plus the first, one report group
	// per Await, one sync per snapshot.
	if limit := (ls.awaits + 1) + ls.awaits + snaps; w.syncs > limit {
		t.Fatalf("%d syncs for %d awaits and %d snapshots, want at most %d", w.syncs, ls.awaits, snaps, limit)
	}
	if records := 1 + len(rec.Records); 2*w.syncs > records {
		t.Fatalf("%d syncs for %d records: still about one sync per record", w.syncs, records)
	}
	// NewWriter wrote the meta record before SyncEach was set.
	if w.writes != w.syncs+1 {
		t.Fatalf("%d writes after the meta record but %d syncs: every committed group must sync once", w.writes-1, w.syncs)
	}
}
