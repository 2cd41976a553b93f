package state

// Differential tests of the journal's line encoder against
// encoding/json, its oracle: for any record, the encoder's bytes and
// error must equal json.Marshal's, and a Journal must write exactly
// Marshal's line (or fail with Marshal's error as its sticky encode
// error). Run the fuzz target with:
//
//	go test ./internal/state -fuzz FuzzRecordEncode -fuzztime 30s

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

// checkEncode compares the encoder and a Journal against json.Marshal
// on one record.
func checkEncode(t *testing.T, e *encoder, r *Record) {
	t.Helper()
	want, wantErr := json.Marshal(r)
	got, gotErr := e.appendRecord(nil, r)
	switch {
	case (wantErr == nil) != (gotErr == nil):
		t.Fatalf("encoder error %v, json.Marshal error %v (encoder wrote %q, Marshal %q)", gotErr, wantErr, got, want)
	case wantErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("encoder error %q, json.Marshal error %q", gotErr, wantErr)
	case wantErr == nil && !bytes.Equal(got, want):
		t.Fatalf("encoder and json.Marshal disagree:\n got %q\nwant %q", got, want)
	}

	var buf bytes.Buffer
	j := &Journal{w: &buf}
	err := j.Append(*r)
	if wantErr != nil {
		if err == nil || err.Error() != "state: journal encode: "+wantErr.Error() || !errors.Is(j.Err(), err) {
			t.Fatalf("journal append error %v, want sticky encode error %v", err, wantErr)
		}
		if buf.Len() != 0 {
			t.Fatalf("failed append wrote %q", buf.Bytes())
		}
		return
	}
	if err != nil {
		t.Fatalf("journal append: %v", err)
	}
	if line := append(want, '\n'); !bytes.Equal(buf.Bytes(), line) {
		t.Fatalf("journal wrote %q, want %q", buf.Bytes(), line)
	}
}

// fuzzRecords builds one record of each payload type from the fuzzer's
// inputs: a and b serve as parameter names, strings and checkpoint
// bytes; x, y, z as every float field.
func fuzzRecords(a, b, kind string, x, y, z float64, n int64, raw []byte, flag bool) []Record {
	var params []string
	if flag {
		params = []string{a, b}
	}
	trial, rung := int(n), int(n>>40)
	return []Record{
		{V: Version, Meta: &Meta{Experiment: a, Algo: kind, Seed: uint64(n), Params: params}},
		{V: Version, Issue: &Issue{Trial: trial, Rung: rung, Target: z, Inherit: int(n >> 8), Kind: kind,
			Config: map[string]float64{a: x, b: y}}},
		{V: Version, Report: &Report{Trial: trial, Rung: rung, Failed: flag, Loss: x, TrueLoss: y,
			LossBits: a, TrueLossBits: kind, Resource: z, Time: -x}},
		{V: Version, Snap: &Snapshot{Issued: trial, Completed: rung, Failed: int(n % 3), Time: y, Final: flag,
			Trials: []TrialSnap{{Trial: trial, Resource: x, State: raw}, {Trial: 1, Resource: z, State: json.RawMessage(b)}}}},
	}
}

// checkDense encodes the issue's configuration through the dense
// Names/Values form and requires the bytes of the map form.
func checkDense(t *testing.T, e *encoder, names []string, vals []float64) {
	t.Helper()
	m := make(map[string]float64, len(names))
	for i, n := range names {
		m[n] = vals[i]
	}
	if len(m) != len(names) {
		return // duplicate names have no map form
	}
	mapped := &Record{V: Version, Issue: &Issue{Trial: 4, Rung: 1, Target: 16, Inherit: -1, Kind: KindPromote, Config: m}}
	dense := &Record{V: Version, Issue: &Issue{Trial: 4, Rung: 1, Target: 16, Inherit: -1, Kind: KindPromote, Names: names, Values: vals}}
	want, wantErr := json.Marshal(mapped)
	got, gotErr := e.appendRecord(nil, dense)
	if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("dense issue error %v, map issue error %v", gotErr, wantErr)
	}
	if wantErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("dense issue encodes differently from its map form:\n got %q\nwant %q", got, want)
	}
}

func FuzzRecordEncode(f *testing.F) {
	f.Add("lr", "momentum", KindSample, 0.25, 1e-7, 1e21, int64(3), []byte(`{"w":[1,2]}`), true)
	f.Add("<lr>", `"q"&`, "\x00\b\f\n\r\t\x1f\x7f", math.Copysign(0, -1), 1e-6, 999999999999999999999.0, int64(-1), []byte(" { \"a\" : [ 1 , 2.5e-3 ] } \n"), false)
	f.Add("héllo", "\xff\xfe", "\u2028\u2029", 5e-324, math.MaxFloat64, -1e20, int64(1)<<41, []byte("\"<b>&\u2028\u2029</b>\""), true)
	f.Add("lr", "lr", "retry", math.NaN(), 1.0, 2.0, int64(0), []byte(`{"a":}`), false)
	f.Add("a", "b", "", math.Inf(1), math.Inf(-1), 0.0, int64(7), []byte(`tru`), true)
	f.Add("a", "b", "", 1.0, 2.0, 3.0, int64(7), []byte(`1.`), true)
	f.Add("a", "b", "", 1.0, 2.0, 3.0, int64(7), []byte(`[1,2]x`), true)
	f.Add("a", "b", "", 1.0, 2.0, 3.0, int64(7), []byte(" \t"), true)
	f.Add("a", "b", "", 1.0, 2.0, 3.0, int64(7), []byte(`"\u12G"`), true)
	f.Add("a", "b", "", 1.0, 2.0, 3.0, int64(7), []byte("\"\x01\""), true)
	f.Add("a", "b", "", 1.0, 2.0, 3.0, int64(7), []byte(strings.Repeat("[", 10001)+strings.Repeat("]", 10001)), true)
	var e encoder
	f.Fuzz(func(t *testing.T, a, b, kind string, x, y, z float64, n int64, raw []byte, flag bool) {
		for _, r := range fuzzRecords(a, b, kind, x, y, z, n, raw, flag) {
			checkEncode(t, &e, &r)
		}
		// Both name orders, so the cached sort permutation is both reused
		// and invalidated.
		checkDense(t, &e, []string{a, b, kind}, []float64{x, y, z})
		checkDense(t, &e, []string{kind, b, a}, []float64{z, y, x})
		checkDense(t, &e, []string{kind, b, a}, []float64{z, y, x})
	})
}

func TestEncodeFloatEdges(t *testing.T) {
	var e encoder
	for _, v := range []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, 1e22, -1e21,
		123456789, 0.1, 1.0 / 3, 5e-324, math.MaxFloat64, -math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, r := range fuzzRecords("x", "y", KindSample, v, -v, v/3, 9, []byte("1"), true) {
			checkEncode(t, &e, &r)
		}
	}
}

func TestEncodeStringEdges(t *testing.T) {
	var e encoder
	for _, s := range []string{"", "<script>&</script>", `"\`, "\x00\x01\b\f\n\r\t\x1f\x7f", "héllo wörld",
		"\xff", "a\xc3", "\u2028\u2029", "\xe2\x80", "日本語", "\U0001F600"} {
		for _, r := range fuzzRecords(s, s+"2", s, 1, 2, 3, 1, []byte(`{"k":"`+s+`"}`), true) {
			checkEncode(t, &e, &r)
		}
	}
}

func TestEncodeCheckpointEdges(t *testing.T) {
	var e encoder
	for _, raw := range []string{
		`0.5`, ` 1 `, "\n{\t\"w\" : [ 1, 2 , {\"x\":null} ] }\r\n", `"<a href>&amp;"`, "\"\u2028\u2029\"",
		`{}`, `[]`, `[ ]`, `{ }`, `true`, `false`, `null`, `-0.0e+00`, `"é\n\\"`,
		// invalid: every scanner error context at least once
		``, ` `, `{`, `{"a"`, `{"a" 1}`, `{"a":1 "b"}`, `[1 2]`, `{1:2}`, `[1,]`, `"abc`, "\"\x1f\"",
		`"\x"`, `"\u12"`, `-`, `-a`, `01`, `1.`, `1.e3`, `1e`, `1e+`, `tru`, `trUe`, `fals`, `nul`, `nulL`,
		`1 2`, `[1]]`, `<`, "\u2028", `x`, `'a'`, `"a"x`, `}`,
		strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
		strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
		strings.Repeat(`{"a":`, 10001) + `1` + strings.Repeat("}", 10001),
	} {
		r := Record{V: Version, Snap: &Snapshot{Issued: 1, Trials: []TrialSnap{{Trial: 0, Resource: 1, State: json.RawMessage(raw)}}}}
		checkEncode(t, &e, &r)
	}
}

func TestDenseIssueEncodesAsItsMap(t *testing.T) {
	var e encoder
	names := []string{"width", "lr", "<m>", "Momentum", "b&"}
	vals := []float64{256, 1e-7, 0.9, -0.5, 3}
	checkDense(t, &e, names, vals)
	checkDense(t, &e, names, vals) // cached permutation
	checkDense(t, &e, []string{"lr", "width"}, []float64{0.1, 64})
	vals[1] = math.NaN()
	checkDense(t, &e, names, vals) // the map form's error
}

func TestValidateRejectsRaggedDenseIssue(t *testing.T) {
	r := Record{V: Version, Issue: &Issue{Names: []string{"lr", "m"}, Values: []float64{1}}}
	if err := r.Validate(); err == nil {
		t.Fatal("issue with 2 names and 1 value validated")
	}
}
