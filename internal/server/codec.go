// Hand-rolled JSON codecs for the high-volume wire types. Per 64-item batch
// on a 2-vCPU Xeon host, BenchmarkCheckInBatchDecode decodes a request in
// 29–38 µs against encoding/json's 100–111 µs (about 3×), and
// BenchmarkCheckInBatchEncode encodes a response in 1.0–1.4 µs against
// 12–15 µs (about 12×). At 650–800k check-ins per core-second over HTTP a
// batch costs 80–98 µs of CPU, client and server together, so encoding/json
// would add ~80 µs to it; the scheduler core is a sub-microsecond slice.
// So the batch request/response types implement json.Marshaler and
// json.Unmarshaler with a small scanner specialized to their fixed shapes;
// the items inside a batch encode through unexported helpers. The wire
// format is order-insensitive: arbitrary whitespace, any field order,
// escaped strings, and null values all parse; unknown fields are rejected
// like a DisallowUnknownFields decoder. Round-trip equivalence with
// encoding/json is pinned by codec_test.go.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"unsafe"
)

var errMalformedJSON = errors.New("server: malformed JSON body")

func errUnknownField(key string) error {
	return fmt.Errorf("server: unknown field %q", key)
}

// --- encoding helpers ---

// appendJSONString appends s as a JSON string literal. Plain ASCII (the
// overwhelmingly common case for device IDs and job names) is copied
// directly; anything needing escapes goes through encoding/json.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' {
			esc, _ := json.Marshal(s)
			return append(b, esc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func appendJSONFloat(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// --- scanning helpers ---

// jscan is a minimal JSON scanner for the fixed wire shapes.
type jscan struct {
	b []byte
	i int
}

func (s *jscan) skipWS() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

func (s *jscan) expect(c byte) error {
	s.skipWS()
	if s.i >= len(s.b) || s.b[s.i] != c {
		return errMalformedJSON
	}
	s.i++
	return nil
}

// literal consumes lit if present at the cursor.
func (s *jscan) literal(lit string) bool {
	if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// key scans an object key, returning the raw bytes between the quotes
// without allocating; call sites compare it via switch string(key), which
// the compiler keeps allocation-free. Escaped keys take the full string
// parse (none of the wire fields need escapes, so this is the error path in
// practice).
func (s *jscan) key() ([]byte, error) {
	s.skipWS()
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, errMalformedJSON
	}
	start := s.i + 1
	s.i++
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			tok := s.b[start:s.i]
			s.i++
			return tok, nil
		case c == '\\':
			s.i = start - 1
			str, err := s.str()
			return []byte(str), err
		case c < 0x20:
			return nil, errMalformedJSON
		default:
			s.i++
		}
	}
	return nil, errMalformedJSON
}

// bytesToString views b as a string without copying. Only for short-lived
// conversions whose result does not outlive b (the strconv parse calls);
// callers must not retain the string.
func bytesToString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// null consumes a null value, reporting whether one was present.
func (s *jscan) null() bool {
	s.skipWS()
	return s.i < len(s.b) && s.b[s.i] == 'n' && s.literal("null")
}

// str parses a JSON string (or null, yielding ""). Unescaped strings are
// sliced out directly; escapes fall back to encoding/json.
func (s *jscan) str() (string, error) {
	if s.null() {
		return "", nil
	}
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return "", errMalformedJSON
	}
	start := s.i
	s.i++
	escaped := false
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '\\':
			escaped = true
			s.i += 2
		case c == '"':
			s.i++
			if !escaped {
				return string(s.b[start+1 : s.i-1]), nil
			}
			var out string
			if err := json.Unmarshal(s.b[start:s.i], &out); err != nil {
				return "", errMalformedJSON
			}
			return out, nil
		case c < 0x20:
			return "", errMalformedJSON
		default:
			s.i++
		}
	}
	return "", errMalformedJSON
}

// numToken scans the extent of a JSON number.
func (s *jscan) numToken() ([]byte, error) {
	s.skipWS()
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		if (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' {
			s.i++
			continue
		}
		break
	}
	if s.i == start {
		return nil, errMalformedJSON
	}
	return s.b[start:s.i], nil
}

func (s *jscan) float() (float64, error) {
	if s.null() {
		return 0, nil
	}
	tok, err := s.numToken()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(bytesToString(tok), 64)
	if err != nil {
		return 0, errMalformedJSON
	}
	return f, nil
}

func (s *jscan) int() (int, error) {
	if s.null() {
		return 0, nil
	}
	tok, err := s.numToken()
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(bytesToString(tok))
	if err != nil {
		return 0, errMalformedJSON
	}
	return n, nil
}

func (s *jscan) bool() (bool, error) {
	s.skipWS()
	switch {
	case s.literal("true"):
		return true, nil
	case s.literal("false"):
		return false, nil
	case s.literal("null"):
		return false, nil
	}
	return false, errMalformedJSON
}

// object parses a JSON object (or null), dispatching each key to field,
// which must consume the key's value from the scanner. The key bytes are
// only valid until the next scanner call.
func (s *jscan) object(field func(key []byte) error) error {
	if s.null() {
		return nil
	}
	if err := s.expect('{'); err != nil {
		return err
	}
	s.skipWS()
	if s.i < len(s.b) && s.b[s.i] == '}' {
		s.i++
		return nil
	}
	for {
		key, err := s.key()
		if err != nil {
			return err
		}
		if err := s.expect(':'); err != nil {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
		s.skipWS()
		if s.i >= len(s.b) {
			return errMalformedJSON
		}
		switch s.b[s.i] {
		case ',':
			s.i++
			s.skipWS()
		case '}':
			s.i++
			return nil
		default:
			return errMalformedJSON
		}
	}
}

// array parses a JSON array (or null), calling elem to consume each element.
func (s *jscan) array(elem func() error) error {
	if s.null() {
		return nil
	}
	if err := s.expect('['); err != nil {
		return err
	}
	s.skipWS()
	if s.i < len(s.b) && s.b[s.i] == ']' {
		s.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		s.skipWS()
		if s.i >= len(s.b) {
			return errMalformedJSON
		}
		switch s.b[s.i] {
		case ',':
			s.i++
		case ']':
			s.i++
			return nil
		default:
			return errMalformedJSON
		}
	}
}

// --- CheckIn ---

func (ci CheckIn) appendJSON(b []byte) []byte {
	b = append(b, `{"device_id":`...)
	b = appendJSONString(b, ci.DeviceID)
	b = append(b, `,"cpu":`...)
	b = appendJSONFloat(b, ci.CPU)
	b = append(b, `,"mem":`...)
	b = appendJSONFloat(b, ci.Mem)
	return append(b, '}')
}

func (ci *CheckIn) scanFrom(s *jscan) error {
	return s.object(func(key []byte) error {
		var err error
		switch string(key) {
		case "device_id":
			ci.DeviceID, err = s.str()
		case "cpu":
			ci.CPU, err = s.float()
		case "mem":
			ci.Mem, err = s.float()
		default:
			err = errUnknownField(string(key))
		}
		return err
	})
}

// --- CheckInBatchRequest ---

// MarshalJSON implements json.Marshaler.
func (r CheckInBatchRequest) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 16+56*len(r.CheckIns))
	b = append(b, `{"checkins":[`...)
	for i, ci := range r.CheckIns {
		if i > 0 {
			b = append(b, ',')
		}
		b = ci.appendJSON(b)
	}
	return append(b, ']', '}'), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *CheckInBatchRequest) UnmarshalJSON(b []byte) error {
	s := jscan{b: b}
	return s.object(func(key []byte) error {
		if string(key) != "checkins" {
			return errUnknownField(string(key))
		}
		return s.array(func() error {
			var ci CheckIn
			if err := ci.scanFrom(&s); err != nil {
				return err
			}
			r.CheckIns = append(r.CheckIns, ci)
			return nil
		})
	})
}

// --- Assignment / CheckInResult ---

func (a Assignment) appendJSON(b []byte) []byte {
	b = append(b, '{')
	if a.Assigned {
		b = append(b, `"assigned":true,"job_id":`...)
		b = strconv.AppendInt(b, int64(a.JobID), 10)
		if a.JobName != "" {
			b = append(b, `,"job_name":`...)
			b = appendJSONString(b, a.JobName)
		}
		if a.Round != 0 {
			b = append(b, `,"round":`...)
			b = strconv.AppendInt(b, int64(a.Round), 10)
		}
		if a.Policy != "" {
			b = append(b, `,"policy":`...)
			b = appendJSONString(b, a.Policy)
		}
	}
	return append(b, '}')
}

func (a *Assignment) scanField(s *jscan, key []byte) (bool, error) {
	var err error
	switch string(key) {
	case "assigned":
		a.Assigned, err = s.bool()
	case "job_id":
		a.JobID, err = s.int()
	case "job_name":
		a.JobName, err = s.str()
	case "round":
		a.Round, err = s.int()
	case "policy":
		a.Policy, err = s.str()
	default:
		return false, nil
	}
	return true, err
}

func (r CheckInResult) appendJSON(b []byte) []byte {
	if r.Error == "" {
		return r.Assignment.appendJSON(b)
	}
	b = append(b, `{"error":`...)
	b = appendJSONString(b, r.Error)
	return append(b, '}')
}

func (r *CheckInResult) scanFrom(s *jscan) error {
	return s.object(func(key []byte) error {
		if string(key) == "error" {
			var err error
			r.Error, err = s.str()
			return err
		}
		ok, err := r.Assignment.scanField(s, key)
		if err == nil && !ok {
			err = errUnknownField(string(key))
		}
		return err
	})
}

// MarshalJSON implements json.Marshaler, so that a result encodes the same
// alone (encoding/json) as inside a CheckInBatchResponse; without it the
// embedded Assignment's reflective encoding would drop a zero job_id.
func (r CheckInResult) MarshalJSON() ([]byte, error) { return r.appendJSON(nil), nil }

// UnmarshalJSON implements json.Unmarshaler (see MarshalJSON).
func (r *CheckInResult) UnmarshalJSON(b []byte) error {
	s := jscan{b: b}
	return r.scanFrom(&s)
}

// --- CheckInBatchResponse ---

// MarshalJSON implements json.Marshaler.
func (r CheckInBatchResponse) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 16+8*len(r.Results))
	b = append(b, `{"results":[`...)
	for i, res := range r.Results {
		if i > 0 {
			b = append(b, ',')
		}
		b = res.appendJSON(b)
	}
	return append(b, ']', '}'), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *CheckInBatchResponse) UnmarshalJSON(b []byte) error {
	s := jscan{b: b}
	return s.object(func(key []byte) error {
		if string(key) != "results" {
			return errUnknownField(string(key))
		}
		return s.array(func() error {
			var res CheckInResult
			if err := res.scanFrom(&s); err != nil {
				return err
			}
			r.Results = append(r.Results, res)
			return nil
		})
	})
}

// --- Report ---

func (r Report) appendJSON(b []byte) []byte {
	b = append(b, `{"device_id":`...)
	b = appendJSONString(b, r.DeviceID)
	b = append(b, `,"job_id":`...)
	b = strconv.AppendInt(b, int64(r.JobID), 10)
	if r.OK {
		b = append(b, `,"ok":true`...)
	} else {
		b = append(b, `,"ok":false`...)
	}
	b = append(b, `,"duration_seconds":`...)
	b = appendJSONFloat(b, r.DurationSeconds)
	return append(b, '}')
}

func (r *Report) scanFrom(s *jscan) error {
	return s.object(func(key []byte) error {
		var err error
		switch string(key) {
		case "device_id":
			r.DeviceID, err = s.str()
		case "job_id":
			r.JobID, err = s.int()
		case "ok":
			r.OK, err = s.bool()
		case "duration_seconds":
			r.DurationSeconds, err = s.float()
		default:
			err = errUnknownField(string(key))
		}
		return err
	})
}

// --- ReportBatchRequest / ReportBatchResponse ---

// MarshalJSON implements json.Marshaler.
func (r ReportBatchRequest) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 16+72*len(r.Reports))
	b = append(b, `{"reports":[`...)
	for i, rep := range r.Reports {
		if i > 0 {
			b = append(b, ',')
		}
		b = rep.appendJSON(b)
	}
	return append(b, ']', '}'), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *ReportBatchRequest) UnmarshalJSON(b []byte) error {
	s := jscan{b: b}
	return s.object(func(key []byte) error {
		if string(key) != "reports" {
			return errUnknownField(string(key))
		}
		return s.array(func() error {
			var rep Report
			if err := rep.scanFrom(&s); err != nil {
				return err
			}
			r.Reports = append(r.Reports, rep)
			return nil
		})
	})
}

// MarshalJSON implements json.Marshaler.
func (r ReportBatchResponse) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 16+4*len(r.Results))
	b = append(b, `{"results":[`...)
	for i, res := range r.Results {
		if i > 0 {
			b = append(b, ',')
		}
		if res.Error == "" {
			b = append(b, '{', '}')
			continue
		}
		b = append(b, `{"error":`...)
		b = appendJSONString(b, res.Error)
		b = append(b, '}')
	}
	return append(b, ']', '}'), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *ReportBatchResponse) UnmarshalJSON(b []byte) error {
	s := jscan{b: b}
	return s.object(func(key []byte) error {
		if string(key) != "results" {
			return errUnknownField(string(key))
		}
		return s.array(func() error {
			var res ReportResult
			err := s.object(func(k []byte) error {
				if string(k) != "error" {
					return errUnknownField(string(k))
				}
				var err error
				res.Error, err = s.str()
				return err
			})
			if err != nil {
				return err
			}
			r.Results = append(r.Results, res)
			return nil
		})
	})
}
