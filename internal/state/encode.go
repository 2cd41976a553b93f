package state

// The journal's line encoder. Records are written without reflection,
// into a reused buffer, yet byte-identical to encoding/json.Marshal of
// the same Record: the same field order and omitempty rules, the same
// float formatting, HTML-escaped strings, map keys in sorted order, and
// RawMessage checkpoints compacted, validated and HTML-escaped the way
// Marshal does it. Where Marshal fails (a non-finite float, an invalid
// checkpoint) the encoder fails with the same error text.
// FuzzRecordEncode holds the two to that, with encoding/json as the
// oracle; recovery still decodes with encoding/json.

import (
	"errors"
	"math"
	"sort"
	"strconv"
	"unicode/utf8"
)

// AppendJSONFloat appends the finite float f exactly as encoding/json
// encodes a float64: shortest round-trip form, exponent notation only
// below 1e-6 or from 1e21 on, the exponent's leading zero trimmed.
// Checkpoints and journal lines written through it are byte-identical
// to json.Marshal's, which the resume-parity goldens depend on.
func AppendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// encoder appends journal records. Its fields are scratch space reused
// across records; the zero value is ready to use.
type encoder struct {
	keys  []string // sorted keys of a name-keyed Issue.Config
	order []int    // sorted-name permutation of the last dense config
	parse []byte   // parse stack of the checkpoint scanner
}

// appendRecord appends r's JSON encoding, without the newline. On error
// the returned slice must be discarded.
func (e *encoder) appendRecord(dst []byte, r *Record) ([]byte, error) {
	dst = append(dst, `{"v":`...)
	dst = strconv.AppendInt(dst, int64(r.V), 10)
	var err error
	if r.Meta != nil {
		dst = appendMeta(append(dst, `,"meta":`...), r.Meta)
	}
	if r.Issue != nil {
		if dst, err = e.appendIssue(append(dst, `,"issue":`...), r.Issue); err != nil {
			return dst, err
		}
	}
	if r.Report != nil {
		if dst, err = appendReport(append(dst, `,"report":`...), r.Report); err != nil {
			return dst, err
		}
	}
	if r.Snap != nil {
		if dst, err = e.appendSnapshot(append(dst, `,"snap":`...), r.Snap); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

func appendMeta(dst []byte, m *Meta) []byte {
	dst = appendString(append(dst, `{"experiment":`...), m.Experiment)
	if m.Algo != "" {
		dst = appendString(append(dst, `,"algo":`...), m.Algo)
	}
	dst = strconv.AppendUint(append(dst, `,"seed":`...), m.Seed, 10)
	if len(m.Params) > 0 {
		dst = append(dst, `,"params":[`...)
		for i, p := range m.Params {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, p)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func (e *encoder) appendIssue(dst []byte, is *Issue) ([]byte, error) {
	dst = strconv.AppendInt(append(dst, `{"trial":`...), int64(is.Trial), 10)
	dst = strconv.AppendInt(append(dst, `,"rung":`...), int64(is.Rung), 10)
	dst, err := appendFloat(append(dst, `,"target":`...), is.Target)
	if err != nil {
		return dst, err
	}
	dst = strconv.AppendInt(append(dst, `,"inherit":`...), int64(is.Inherit), 10)
	if is.Kind != "" {
		dst = appendString(append(dst, `,"kind":`...), is.Kind)
	}
	switch {
	case len(is.Config) > 0:
		e.keys = e.keys[:0]
		for k := range is.Config {
			e.keys = append(e.keys, k)
		}
		sort.Strings(e.keys)
		dst = append(dst, `,"config":{`...)
		for i, k := range e.keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendFloat(append(appendString(dst, k), ':'), is.Config[k]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, '}')
	case len(is.Values) > 0:
		dst = append(dst, `,"config":{`...)
		for i, k := range e.sortedOrder(is.Names) {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendFloat(append(appendString(dst, is.Names[k]), ':'), is.Values[k]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// sortedOrder returns the permutation listing names in sorted order, the
// order encoding/json writes map keys in. Configurations of one search
// space share one name table, so the permutation of the previous call is
// kept and reused after checking that it still sorts names: one sort per
// run, not per issue.
func (e *encoder) sortedOrder(names []string) []int {
	if len(e.order) == len(names) {
		ok := true
		for i := 1; i < len(e.order) && ok; i++ {
			ok = names[e.order[i-1]] < names[e.order[i]]
		}
		if ok {
			return e.order
		}
	}
	e.order = e.order[:0]
	for i := range names {
		e.order = append(e.order, i)
	}
	sort.SliceStable(e.order, func(a, b int) bool { return names[e.order[a]] < names[e.order[b]] })
	return e.order
}

func appendReport(dst []byte, r *Report) ([]byte, error) {
	dst = strconv.AppendInt(append(dst, `{"trial":`...), int64(r.Trial), 10)
	dst = strconv.AppendInt(append(dst, `,"rung":`...), int64(r.Rung), 10)
	if r.Failed {
		dst = append(dst, `,"failed":true`...)
	}
	dst, err := appendOmitFloat(dst, `,"loss":`, r.Loss)
	if err != nil {
		return dst, err
	}
	if dst, err = appendOmitFloat(dst, `,"true":`, r.TrueLoss); err != nil {
		return dst, err
	}
	if r.LossBits != "" {
		dst = appendString(append(dst, `,"lossb":`...), r.LossBits)
	}
	if r.TrueLossBits != "" {
		dst = appendString(append(dst, `,"trueb":`...), r.TrueLossBits)
	}
	if dst, err = appendOmitFloat(dst, `,"resource":`, r.Resource); err != nil {
		return dst, err
	}
	if dst, err = appendOmitFloat(dst, `,"time":`, r.Time); err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

func (e *encoder) appendSnapshot(dst []byte, s *Snapshot) ([]byte, error) {
	dst = strconv.AppendInt(append(dst, `{"issued":`...), int64(s.Issued), 10)
	dst = strconv.AppendInt(append(dst, `,"completed":`...), int64(s.Completed), 10)
	if s.Failed != 0 {
		dst = strconv.AppendInt(append(dst, `,"failed":`...), int64(s.Failed), 10)
	}
	dst, err := appendOmitFloat(dst, `,"time":`, s.Time)
	if err != nil {
		return dst, err
	}
	if s.Final {
		dst = append(dst, `,"final":true`...)
	}
	if len(s.Trials) > 0 {
		dst = append(dst, `,"trials":[`...)
		for i := range s.Trials {
			t := &s.Trials[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(dst, `{"trial":`...), int64(t.Trial), 10)
			if dst, err = appendFloat(append(dst, `,"resource":`...), t.Resource); err != nil {
				return dst, err
			}
			if len(t.State) > 0 {
				if dst, err = e.appendRaw(append(dst, `,"state":`...), t.State); err != nil {
					return dst, err
				}
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// appendFloat is AppendJSONFloat with encoding/json's refusal of values
// JSON cannot represent.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	return AppendJSONFloat(dst, f), nil
}

// appendOmitFloat appends an omitempty float field: nothing for ±0.
func appendOmitFloat(dst []byte, key string, f float64) ([]byte, error) {
	if f == 0 {
		return dst, nil
	}
	return appendFloat(append(dst, key...), f)
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does
// with HTML escaping on: '<', '>' and '&' as \u00XX, control bytes with
// their short escapes where JSON has one, invalid UTF-8 as \ufffd, and
// U+2028/U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendRaw appends a RawMessage checkpoint the way json.Marshal embeds
// one: validated, insignificant whitespace removed, '<', '>', '&' and
// U+2028/U+2029 escaped. An invalid checkpoint fails with Marshal's
// error text.
func (e *encoder) appendRaw(dst, src []byte) ([]byte, error) {
	orig := len(dst)
	s := rawScanner{parse: e.parse[:0]}
	start := 0
	for i, c := range src {
		if c == '<' || c == '>' || c == '&' {
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			start = i + 1
		}
		if c == 0xE2 && i+2 < len(src) && src[i+1] == 0x80 && src[i+2]&^1 == 0xA8 {
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[src[i+2]&0xF])
			start = i + 3
		}
		v := s.step(c)
		if v == scanFail {
			break
		}
		if v == scanSkip {
			if start < i {
				dst = append(dst, src[start:i]...)
			}
			start = i + 1
		}
	}
	e.parse = s.parse
	if msg := s.eof(); msg != "" {
		return dst[:orig], errors.New("json: error calling MarshalJSON for type json.RawMessage: " + msg)
	}
	if start < len(src) {
		dst = append(dst, src[start:]...)
	}
	return dst, nil
}

// rawScanner is a port of encoding/json's scanner state machine: the
// same states, the same nesting limit and the same error text, so a
// checkpoint Marshal would reject fails here with Marshal's message.
type rawScanner struct {
	state  uint8
	parse  []byte // open containers: parseObjectKey, parseObjectValue or parseArrayValue
	lit    string // the true/false/null literal being scanned
	pos    int    // index of its next byte
	hex    uint8  // hex digits still due in a \u escape
	msg    string // the first error, "" while valid
	endTop bool
}

// Step results: keep the byte, drop it (whitespace outside a value), or
// stop on an error.
const (
	scanKeep = iota
	scanSkip
	scanFail
)

// Scanner states, named after encoding/json's state functions.
const (
	stBeginValue = iota
	stBeginValueOrEmpty
	stBeginStringOrEmpty
	stBeginString
	stEndValue
	stEndTop
	stInString
	stInStringEsc
	stInStringEscU
	stNeg
	st1
	st0
	stDot
	stDot0
	stE
	stESign
	stE0
	stLiteral
	stError
)

const (
	parseObjectKey = iota
	parseObjectValue
	parseArrayValue
)

const maxNestingDepth = 10000

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func (s *rawScanner) fail(c byte, context string) int {
	s.state = stError
	if s.msg == "" {
		s.msg = "invalid character " + quoteChar(c) + " " + context
	}
	return scanFail
}

// quoteChar formats c as encoding/json's syntax errors do.
func quoteChar(c byte) string {
	if c == '\'' {
		return `'\''`
	}
	if c == '"' {
		return `'"'`
	}
	q := strconv.Quote(string(c))
	return "'" + q[1:len(q)-1] + "'"
}

func (s *rawScanner) eof() string {
	if s.msg != "" || s.endTop {
		return s.msg
	}
	s.step(' ')
	if s.endTop {
		return s.msg
	}
	if s.msg == "" {
		s.msg = "unexpected end of JSON input"
	}
	return s.msg
}

func (s *rawScanner) push(c byte, p byte, next uint8) int {
	s.parse = append(s.parse, p)
	if len(s.parse) > maxNestingDepth {
		return s.fail(c, "exceeded max depth")
	}
	s.state = next
	return scanKeep
}

func (s *rawScanner) pop() {
	s.parse = s.parse[:len(s.parse)-1]
	if len(s.parse) == 0 {
		s.state = stEndTop
		s.endTop = true
	} else {
		s.state = stEndValue
	}
}

func (s *rawScanner) step(c byte) int {
	switch s.state {
	case stBeginValueOrEmpty:
		if isSpace(c) {
			return scanSkip
		}
		if c == ']' {
			return s.endValue(c)
		}
		return s.beginValue(c)
	case stBeginValue:
		return s.beginValue(c)
	case stBeginStringOrEmpty:
		if isSpace(c) {
			return scanSkip
		}
		if c == '}' {
			s.parse[len(s.parse)-1] = parseObjectValue
			return s.endValue(c)
		}
		return s.beginString(c)
	case stBeginString:
		return s.beginString(c)
	case stEndValue:
		return s.endValue(c)
	case stEndTop:
		return s.endTopValue(c)
	case stInString:
		switch {
		case c == '"':
			s.state = stEndValue
		case c == '\\':
			s.state = stInStringEsc
		case c < 0x20:
			return s.fail(c, "in string literal")
		}
		return scanKeep
	case stInStringEsc:
		switch c {
		case 'b', 'f', 'n', 'r', 't', '\\', '/', '"':
			s.state = stInString
		case 'u':
			s.state, s.hex = stInStringEscU, 4
		default:
			return s.fail(c, "in string escape code")
		}
		return scanKeep
	case stInStringEscU:
		if !isHex(c) {
			return s.fail(c, "in \\u hexadecimal character escape")
		}
		if s.hex--; s.hex == 0 {
			s.state = stInString
		}
		return scanKeep
	case stNeg:
		switch {
		case c == '0':
			s.state = st0
		case '1' <= c && c <= '9':
			s.state = st1
		default:
			return s.fail(c, "in numeric literal")
		}
		return scanKeep
	case st1:
		if '0' <= c && c <= '9' {
			return scanKeep
		}
		return s.zero(c)
	case st0:
		return s.zero(c)
	case stDot:
		if '0' <= c && c <= '9' {
			s.state = stDot0
			return scanKeep
		}
		return s.fail(c, "after decimal point in numeric literal")
	case stDot0:
		if '0' <= c && c <= '9' {
			return scanKeep
		}
		if c == 'e' || c == 'E' {
			s.state = stE
			return scanKeep
		}
		return s.endValue(c)
	case stE:
		if c == '+' || c == '-' {
			s.state = stESign
			return scanKeep
		}
		return s.eSign(c)
	case stESign:
		return s.eSign(c)
	case stE0:
		if '0' <= c && c <= '9' {
			return scanKeep
		}
		return s.endValue(c)
	case stLiteral:
		if c != s.lit[s.pos] {
			return s.fail(c, "in literal "+s.lit+" (expecting "+quoteChar(s.lit[s.pos])+")")
		}
		if s.pos++; s.pos == len(s.lit) {
			s.state = stEndValue
		}
		return scanKeep
	}
	return scanFail // stError
}

func (s *rawScanner) beginValue(c byte) int {
	if isSpace(c) {
		return scanSkip
	}
	switch {
	case c == '{':
		return s.push(c, parseObjectKey, stBeginStringOrEmpty)
	case c == '[':
		return s.push(c, parseArrayValue, stBeginValueOrEmpty)
	case c == '"':
		s.state = stInString
	case c == '-':
		s.state = stNeg
	case c == '0':
		s.state = st0
	case c == 't':
		s.state, s.lit, s.pos = stLiteral, "true", 1
	case c == 'f':
		s.state, s.lit, s.pos = stLiteral, "false", 1
	case c == 'n':
		s.state, s.lit, s.pos = stLiteral, "null", 1
	case '1' <= c && c <= '9':
		s.state = st1
	default:
		return s.fail(c, "looking for beginning of value")
	}
	return scanKeep
}

func (s *rawScanner) beginString(c byte) int {
	if isSpace(c) {
		return scanSkip
	}
	if c == '"' {
		s.state = stInString
		return scanKeep
	}
	return s.fail(c, "looking for beginning of object key string")
}

func (s *rawScanner) zero(c byte) int {
	if c == '.' {
		s.state = stDot
		return scanKeep
	}
	if c == 'e' || c == 'E' {
		s.state = stE
		return scanKeep
	}
	return s.endValue(c)
}

func (s *rawScanner) eSign(c byte) int {
	if '0' <= c && c <= '9' {
		s.state = stE0
		return scanKeep
	}
	return s.fail(c, "in exponent of numeric literal")
}

func (s *rawScanner) endValue(c byte) int {
	n := len(s.parse)
	if n == 0 {
		s.state = stEndTop
		s.endTop = true
		return s.endTopValue(c)
	}
	if isSpace(c) {
		s.state = stEndValue
		return scanSkip
	}
	switch s.parse[n-1] {
	case parseObjectKey:
		if c == ':' {
			s.parse[n-1] = parseObjectValue
			s.state = stBeginValue
			return scanKeep
		}
		return s.fail(c, "after object key")
	case parseObjectValue:
		if c == ',' {
			s.parse[n-1] = parseObjectKey
			s.state = stBeginString
			return scanKeep
		}
		if c == '}' {
			s.pop()
			return scanKeep
		}
		return s.fail(c, "after object key:value pair")
	default: // parseArrayValue
		if c == ',' {
			s.state = stBeginValue
			return scanKeep
		}
		if c == ']' {
			s.pop()
			return scanKeep
		}
		return s.fail(c, "after array element")
	}
}

func (s *rawScanner) endTopValue(c byte) int {
	if !isSpace(c) {
		return s.fail(c, "after top-level value")
	}
	return scanSkip
}
