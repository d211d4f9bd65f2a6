// Hand-rolled JSON codecs for the high-volume wire types. Per 64-item batch
// on a 2-vCPU Xeon host (min–median of 10 interleaved runs),
// BenchmarkCheckInBatchDecode decodes a request in 23–31 µs against
// encoding/json's 92–113 µs, and BenchmarkCheckInBatchEncode encodes a
// response in 1.1–1.3 µs against 10–14 µs. On bench's http-json workload a
// batch costs about 130 µs of CPU, client and server together, and the
// scheduler core is a sub-microsecond slice of it. So the batch
// request/response types implement json.Marshaler and json.Unmarshaler with
// a small scanner specialized to their fixed shapes; the items inside a
// batch encode through unexported helpers. The wire format is
// order-insensitive: arbitrary whitespace, any field order, escaped strings,
// and null values all parse; unknown fields are rejected like a
// DisallowUnknownFields decoder. Round-trip equivalence with encoding/json
// is pinned by codec_test.go. The HTTP batch routes decode into a BatchBuf
// with the device IDs as views of the pooled body (decodeCheckInsJSON);
// UnmarshalJSON copies them.
//
// Scores convert through the exact number kernel in jsonnum.go, which
// returns strconv's bytes and bits.
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

// Upper bounds on an encoded request item's bytes besides its device ID's,
// comma included, which presize a request body: a float's shortest 'g' form
// is at most 24 bytes (-2.2250738585072014e-308) and an int's 20. An ID that
// needs no escapes therefore never regrows the body.
const (
	maxJSONFloat   = 24
	checkInJSONMax = len(`,{"device_id":"","cpu":,"mem":}`) + 2*maxJSONFloat
	reportJSONMax  = len(`,{"device_id":"","job_id":,"ok":false,"duration_seconds":}`) + 20 + maxJSONFloat
)

// --- scanning helpers ---

// jscan is a minimal JSON scanner for the fixed wire shapes. With views
// set, an unescaped string is a view of b rather than a copy (see BatchBuf).
type jscan struct {
	b     []byte
	i     int
	views bool
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

// bytesToString views b as a string without copying: for the strconv parse
// calls, and for the device IDs of a BatchBuf's HTTP body, which live until
// the reply is written. The string must not outlive b.
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
// copied out, or viewed when s.views is set; escapes fall back to
// encoding/json.
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
				if s.views {
					return bytesToString(s.b[start+1 : s.i-1]), nil
				}
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

// float parses a number (or null, yielding 0): a plain decimal in one pass
// when it can be exact, everything else, and every rejection, as numToken's
// token through strconv.ParseFloat.
func (s *jscan) float() (float64, error) {
	if s.null() {
		return 0, nil
	}
	if f, ok := s.decimal(); ok {
		return f, nil
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

func (ci CheckIn) appendJSON(b []byte) (_ []byte, err error) {
	b = append(b, `{"device_id":`...)
	b = appendJSONString(b, ci.DeviceID)
	b = append(b, `,"cpu":`...)
	if b, err = appendJSONFloat(b, ci.CPU); err != nil {
		return b, err
	}
	b = append(b, `,"mem":`...)
	if b, err = appendJSONFloat(b, ci.Mem); err != nil {
		return b, err
	}
	return append(b, '}'), nil
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

// MarshalJSON implements json.Marshaler. The body is allocated once, sized
// from the batch (see checkInJSONMax). A NaN or infinite score fails it with
// a *json.UnsupportedValueError, as encoding/json would.
func (r CheckInBatchRequest) MarshalJSON() ([]byte, error) {
	n := len(`{"checkins":[]}`) + checkInJSONMax*len(r.CheckIns)
	for i := range r.CheckIns {
		n += len(r.CheckIns[i].DeviceID)
	}
	b := append(make([]byte, 0, n), `{"checkins":[`...)
	for i, ci := range r.CheckIns {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = ci.appendJSON(b); err != nil {
			return nil, err
		}
	}
	return append(b, ']', '}'), nil
}

// UnmarshalJSON implements json.Unmarshaler. The device IDs are copies.
func (r *CheckInBatchRequest) UnmarshalJSON(b []byte) (err error) {
	s := jscan{b: b}
	r.CheckIns, err = scanCheckIns(&s, r.CheckIns)
	return err
}

// scanCheckIns appends a check-in batch request's items to dst.
func scanCheckIns(s *jscan, dst []CheckIn) ([]CheckIn, error) {
	err := s.object(func(key []byte) error {
		if string(key) != "checkins" {
			return errUnknownField(string(key))
		}
		return s.array(func() error {
			var ci CheckIn
			if err := ci.scanFrom(s); err != nil {
				return err
			}
			dst = append(dst, ci)
			return nil
		})
	})
	return dst, err
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
	return r.appendJSON(make([]byte, 0, 16+8*len(r.Results))), nil
}

func (r CheckInBatchResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"results":[`...)
	for i, res := range r.Results {
		if i > 0 {
			b = append(b, ',')
		}
		b = res.appendJSON(b)
	}
	return append(b, ']', '}')
}

// UnmarshalJSON implements json.Unmarshaler. Results are appended to
// r.Results, so a caller that knows the batch length presizes it.
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

func (r Report) appendJSON(b []byte) (_ []byte, err error) {
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
	if b, err = appendJSONFloat(b, r.DurationSeconds); err != nil {
		return b, err
	}
	return append(b, '}'), nil
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

// MarshalJSON implements json.Marshaler: one allocation sized from the batch
// (see reportJSONMax), and a *json.UnsupportedValueError for a NaN or
// infinite duration, as encoding/json would give.
func (r ReportBatchRequest) MarshalJSON() ([]byte, error) {
	n := len(`{"reports":[]}`) + reportJSONMax*len(r.Reports)
	for i := range r.Reports {
		n += len(r.Reports[i].DeviceID)
	}
	b := append(make([]byte, 0, n), `{"reports":[`...)
	for i, rep := range r.Reports {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = rep.appendJSON(b); err != nil {
			return nil, err
		}
	}
	return append(b, ']', '}'), nil
}

// UnmarshalJSON implements json.Unmarshaler. The device IDs are copies.
func (r *ReportBatchRequest) UnmarshalJSON(b []byte) (err error) {
	s := jscan{b: b}
	r.Reports, err = scanReports(&s, r.Reports)
	return err
}

// scanReports appends a report batch request's items to dst.
func scanReports(s *jscan, dst []Report) ([]Report, error) {
	err := s.object(func(key []byte) error {
		if string(key) != "reports" {
			return errUnknownField(string(key))
		}
		return s.array(func() error {
			var rep Report
			if err := rep.scanFrom(s); err != nil {
				return err
			}
			dst = append(dst, rep)
			return nil
		})
	})
	return dst, err
}

// MarshalJSON implements json.Marshaler.
func (r ReportBatchResponse) MarshalJSON() ([]byte, error) {
	return r.appendJSON(make([]byte, 0, 16+4*len(r.Results))), nil
}

func (r ReportBatchResponse) appendJSON(b []byte) []byte {
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
	return append(b, ']', '}')
}

// UnmarshalJSON implements json.Unmarshaler; see CheckInBatchResponse's.
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
