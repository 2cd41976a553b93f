package state

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// syncer is the optional durability hook of a journal's writer. *os.File
// implements it; fault-injection tests implement it to simulate fsync
// failures.
type syncer interface {
	Sync() error
}

// Journal is a write-ahead appender. Records are written one per line,
// in groups: Stage encodes a record onto the pending group, and Commit
// writes the whole group with a single Write call. Append is Stage plus
// Commit. A crash can therefore tear only the final group: whatever
// whole lines of it reached the file survive, and Recover discards the
// torn line after them as the recovery point. A failed stage or commit
// (an unencodable record, a write error, a short write, or a failed
// sync) is sticky: every later call returns the same error, forcing the
// caller to abort instead of continuing with a hole in the log.
//
// Calls are serialized by an internal mutex, but the write-ahead
// ordering contract is the caller's: commit the issue before launching,
// commit the report before delivering it to the scheduler. Staged
// records are written by the next Commit or Append, whoever calls it.
type Journal struct {
	mu      sync.Mutex
	w       io.Writer
	f       *os.File
	err     error
	records int

	enc    encoder
	group  []byte // staged lines, each '\n'-terminated, reused across commits
	staged int    // records in group

	// SyncEach, when set before use, syncs the underlying writer after
	// every commit, making records durable against machine crashes, not
	// just process crashes — at one sync per group, not per record. Off
	// by default: a committed Write already survives process death, and
	// an fsync costs ~1ms on most filesystems.
	SyncEach bool
}

// Create creates (or truncates) the journal file at path and writes its
// meta head record.
func Create(path string, meta Meta) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("state: create journal: %w", err)
	}
	j := &Journal{w: f, f: f}
	if err := j.Append(Record{V: Version, Meta: &meta}); err != nil {
		_ = f.Close()
		return nil, err
	}
	return j, nil
}

// NewWriter starts a journal on an arbitrary writer (an in-memory buffer
// in tests, a fault-injecting writer in crash tests) and writes its meta
// head record. If w implements Sync() error it is used for SyncEach.
func NewWriter(w io.Writer, meta Meta) (*Journal, error) {
	j := &Journal{w: w}
	if err := j.Append(Record{V: Version, Meta: &meta}); err != nil {
		return nil, err
	}
	return j, nil
}

// ReopenWriter continues a journal on a writer that already holds its
// committed prefix — the in-memory twin of RecoverFile's append mode,
// used by crash-resume tests. records is the number of records already
// committed, reported by Records().
func ReopenWriter(w io.Writer, records int) *Journal {
	return &Journal{w: w, records: records}
}

// Append writes one record, together with any records staged before
// it, in one Write. The first error is sticky.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.stage(&rec); err != nil {
		return err
	}
	return j.commit()
}

// Stage encodes one record onto the pending group without writing it;
// nothing staged is durable, or visible to Recover, until Commit. A
// record that cannot be encoded fails the journal (sticky) and discards
// the group.
func (j *Journal) Stage(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stage(&rec)
}

// Commit writes every staged record with one Write call and, with
// SyncEach, one sync. Committing an empty group writes nothing. A failed
// commit is sticky; how many of the group's whole lines reached the
// writer is then up to the writer, and Recover keeps exactly those.
func (j *Journal) Commit() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.commit()
}

func (j *Journal) stage(rec *Record) error {
	if j.err != nil {
		return j.err
	}
	if err := rec.Validate(); err != nil {
		// A malformed record is a caller bug, not a journal failure: report
		// it without poisoning the journal.
		return err
	}
	line, err := j.enc.appendRecord(j.group, rec)
	if err != nil {
		j.group, j.staged = j.group[:0], 0
		j.err = fmt.Errorf("state: journal encode: %w", err)
		return j.err
	}
	j.group = append(line, '\n')
	j.staged++
	return nil
}

// maxKeptGroup caps the group buffer a journal keeps between commits.
// Ordinary groups (a fill pass, an Await batch) stay well under it; a
// snapshot of a wide trial table or a run's first fill can reach
// megabytes, and pinning that for the journal's lifetime would raise
// the process's peak heap for nothing.
const maxKeptGroup = 16 << 10

func (j *Journal) commit() error {
	if j.err != nil {
		return j.err
	}
	if j.staged == 0 {
		return nil
	}
	group, staged := j.group, j.staged
	j.group, j.staged = group[:0], 0
	if cap(group) > maxKeptGroup {
		j.group = nil
	}
	n, err := j.w.Write(group)
	if err == nil && n < len(group) {
		err = io.ErrShortWrite
	}
	if err != nil {
		j.err = fmt.Errorf("state: journal append: %w", err)
		return j.err
	}
	if j.SyncEach {
		if s, ok := j.w.(syncer); ok {
			if err := s.Sync(); err != nil {
				j.err = fmt.Errorf("state: journal sync: %w", err)
				return j.err
			}
		}
	}
	j.records += staged
	return nil
}

// AppendIssue, AppendReport and AppendSnapshot wrap Append for the three
// body record types; StageIssue and StageReport wrap Stage.
func (j *Journal) AppendIssue(is Issue) error {
	return j.Append(Record{V: Version, Issue: &is})
}

func (j *Journal) AppendReport(rep Report) error {
	return j.Append(Record{V: Version, Report: &rep})
}

func (j *Journal) AppendSnapshot(snap Snapshot) error {
	return j.Append(Record{V: Version, Snap: &snap})
}

func (j *Journal) StageIssue(is Issue) error {
	return j.Stage(Record{V: Version, Issue: &is})
}

func (j *Journal) StageReport(rep Report) error {
	return j.Stage(Record{V: Version, Report: &rep})
}

// Err returns the journal's sticky error, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Records returns the number of records successfully committed
// (including the meta record, and including records replayed from disk
// when the journal was opened by RecoverFile). Staged records count once
// their group commits.
func (j *Journal) Records() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Close syncs and closes the underlying file, if any. Records still
// staged are not written: they stand for actions the caller never took.
// It returns the sticky append error in preference to a close error, so
// callers that only check Close still observe append failures.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	// Release the buffers: a closed journal may stay reachable (from a
	// finished run's bookkeeping) long after its last write.
	j.group, j.staged, j.enc = nil, 0, encoder{}
	var closeErr error
	if j.f != nil {
		if err := j.f.Sync(); err != nil && j.err == nil {
			j.err = fmt.Errorf("state: journal sync on close: %w", err)
		}
		closeErr = j.f.Close()
		j.f = nil
		j.w = nil
	}
	if j.err != nil {
		return j.err
	}
	return closeErr
}
