// Package state implements the durable run state underneath checkpoint/
// resume: a write-ahead journal of every scheduler decision plus periodic
// snapshots of the executor's trial table, stored as a single append-only
// file per experiment.
//
// The file is JSON Lines: one Record per '\n'-terminated line, each
// carrying exactly one payload (meta, issue, report, or snap) and a
// format version. The encoding deliberately reuses the conventions of the
// exec wire protocol (internal/exec.Request / Response): configurations
// are name-keyed JSON objects, checkpoints are opaque json.RawMessage
// blobs produced by workers, and every record is versioned with a "v"
// field so a reader can reject journals written by an incompatible
// future format instead of silently misinterpreting them.
//
// Durability contract (write-ahead discipline, enforced by the engine in
// internal/backend and by asha.Manager):
//
//   - an issue record is appended (and optionally fsynced) BEFORE the job
//     is handed to the execution backend, so a job can never run without
//     a durable record of its issuance;
//   - a report record is appended BEFORE the result is delivered to the
//     scheduler, so the journal is always a superset of scheduler state;
//   - a failed append is sticky: the journal refuses all further records,
//     and the caller must abort the run rather than continue with a hole
//     in the log.
//
// Recovery (Recover / RecoverFile) scans the file and stops at the first
// torn or undecodable line: a crash mid-write leaves a truncated tail,
// which is a clean recovery point — everything before it is replayable,
// everything after it never affected scheduler state (the write-ahead
// ordering guarantees the corresponding Launch/Report never happened).
// Replaying the committed records through a freshly constructed scheduler
// of the same seed and configuration reproduces its state bit for bit;
// that semantic replay lives in internal/backend.Replay (and the
// manager's twin in the public package), while this package stays purely
// syntactic so the decoder can be fuzzed in isolation.
package state

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// Version is the journal format version. Every record carries it; a
// reader rejects records written by any other version.
const Version = 1

// Meta is the journal's head record: enough identity to refuse resuming
// a run under a different experiment, seed, algorithm, or search space.
type Meta struct {
	// Experiment is the experiment name ("tuner" for single-tuner runs).
	Experiment string `json:"experiment"`
	// Algo describes the algorithm configuration (informational, but
	// compared on resume to catch operator error).
	Algo string `json:"algo,omitempty"`
	// Seed is the run's sampling seed: replay is only valid against a
	// scheduler built from the same seed.
	Seed uint64 `json:"seed"`
	// Params lists the search-space parameter names in index order.
	Params []string `json:"params,omitempty"`
}

// Issue records one scheduler decision to run a job — a fresh sample, a
// promotion, or a retry of a dropped job.
type Issue struct {
	// Trial identifies the configuration's stateful training run.
	Trial int `json:"trial"`
	// Rung is the rung index the job completes.
	Rung int `json:"rung"`
	// Target is the cumulative resource the job trains to.
	Target float64 `json:"target"`
	// Inherit names a donor trial for PBT-style exploit steps (-1 none).
	Inherit int `json:"inherit"`
	// Kind annotates the decision: "sample" (new bottom-rung
	// configuration), "promote" (rung k -> k+1), or "retry" (re-issue
	// after a failure). Derivable from the stream, recorded for
	// inspectability.
	Kind string `json:"kind,omitempty"`
	// Config is the name-keyed hyperparameter assignment, exactly as the
	// exec wire encodes it. Replay validates it bit-for-bit against the
	// scheduler's regenerated decision.
	Config map[string]float64 `json:"config,omitempty"`
	// Names and Values are the write side's dense form of Config: the
	// configuration's parameter names and values, both in its table
	// order. When Config is empty the journal encodes them as the same
	// name-keyed object, keys sorted, byte for byte what Config would
	// encode to — so issuing a job builds no map. Decoding always fills
	// Config and leaves these nil.
	Names  []string  `json:"-"`
	Values []float64 `json:"-"`
}

// Issue kinds.
const (
	KindSample  = "sample"
	KindPromote = "promote"
	KindRetry   = "retry"
)

// Report records one result delivered to the scheduler. Failed reports
// carry no loss (the executor observed nothing).
type Report struct {
	Trial  int  `json:"trial"`
	Rung   int  `json:"rung"`
	Failed bool `json:"failed,omitempty"`
	// Loss and TrueLoss are the observed and noiseless validation losses
	// at Resource (absent on failed reports). JSON numbers cannot carry
	// NaN or ±Inf, which diverged objectives legitimately report: those
	// values travel bit-exact in LossBits/TrueLossBits instead (hex of
	// math.Float64bits). Use SetLosses/Losses rather than the fields.
	Loss         float64 `json:"loss,omitempty"`
	TrueLoss     float64 `json:"true,omitempty"`
	LossBits     string  `json:"lossb,omitempty"`
	TrueLossBits string  `json:"trueb,omitempty"`
	Resource     float64 `json:"resource,omitempty"`
	// Time is the completion time on the run's clock; resumed runs
	// continue the clock from the journal's maximum.
	Time float64 `json:"time,omitempty"`
}

// SetLosses records the observed and noiseless losses, routing
// non-finite values through the bit-exact hex fields so the record
// stays encodable and replay stays bit-identical.
func (r *Report) SetLosses(loss, trueLoss float64) {
	if isFinite(loss) {
		r.Loss = loss
	} else {
		r.LossBits = strconv.FormatUint(math.Float64bits(loss), 16)
	}
	if isFinite(trueLoss) {
		r.TrueLoss = trueLoss
	} else {
		r.TrueLossBits = strconv.FormatUint(math.Float64bits(trueLoss), 16)
	}
}

// Losses returns the recorded losses, decoding the non-finite fallback
// fields when present.
func (r *Report) Losses() (loss, trueLoss float64) {
	loss, trueLoss = r.Loss, r.TrueLoss
	if r.LossBits != "" {
		if bits, err := strconv.ParseUint(r.LossBits, 16, 64); err == nil {
			loss = math.Float64frombits(bits)
		}
	}
	if r.TrueLossBits != "" {
		if bits, err := strconv.ParseUint(r.TrueLossBits, 16, 64); err == nil {
			trueLoss = math.Float64frombits(bits)
		}
	}
	return loss, trueLoss
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// TrialSnap is one trial's committed executor state inside a snapshot:
// the cumulative resource it reached and the opaque JSON checkpoint to
// resume it from (the same blob the exec wire's Response.State carries).
type TrialSnap struct {
	Trial    int             `json:"trial"`
	Resource float64         `json:"resource"`
	State    json.RawMessage `json:"state,omitempty"`
}

// Snapshot is a periodic full capture of run counters and the executor's
// trial table. Trials that progressed after the latest snapshot resume
// from the snapshot's checkpoint — the same rollback semantics as a
// worker crash — so snapshot cadence bounds recomputation, not
// correctness.
type Snapshot struct {
	Issued    int     `json:"issued"`
	Completed int     `json:"completed"`
	Failed    int     `json:"failed,omitempty"`
	Time      float64 `json:"time,omitempty"`
	// Final marks the clean-shutdown snapshot written when a run ends
	// normally.
	Final  bool        `json:"final,omitempty"`
	Trials []TrialSnap `json:"trials,omitempty"`
}

// Record is one journal line: a version plus exactly one payload.
type Record struct {
	V      int       `json:"v"`
	Meta   *Meta     `json:"meta,omitempty"`
	Issue  *Issue    `json:"issue,omitempty"`
	Report *Report   `json:"report,omitempty"`
	Snap   *Snapshot `json:"snap,omitempty"`
}

// Validate checks the record's version and that it carries exactly one
// payload.
func (r *Record) Validate() error {
	if r.V != Version {
		return fmt.Errorf("state: record version %d, this reader speaks %d", r.V, Version)
	}
	n := 0
	if r.Meta != nil {
		n++
	}
	if r.Issue != nil {
		n++
	}
	if r.Report != nil {
		n++
	}
	if r.Snap != nil {
		n++
	}
	if n != 1 {
		return fmt.Errorf("state: record carries %d payloads, want exactly 1", n)
	}
	if r.Issue != nil && len(r.Issue.Names) != len(r.Issue.Values) {
		return fmt.Errorf("state: issue carries %d parameter names for %d values", len(r.Issue.Names), len(r.Issue.Values))
	}
	return nil
}
