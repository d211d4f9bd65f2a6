package server

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"testing"

	"venn/internal/stats"
)

// FuzzCodecRoundTrip drives arbitrary bytes through every hand-rolled codec
// in codec.go. For each wire type it demands three properties:
//
//  1. UnmarshalJSON never panics, whatever the input.
//  2. The custom decoder accepts a superset-compatible view of what the
//     stdlib accepts: if encoding/json (via the mirror struct, which
//     bypasses the custom methods) parses the input, the custom decoder
//     must parse it too — except for unknown fields, which the custom
//     decoder (like the former DisallowUnknownFields configuration)
//     rejects on purpose.
//  3. What the custom decoder accepts re-marshals and re-parses to the
//     same value (round-trip stability).
//
// CI runs this with a short -fuzztime as a smoke pass; the corpus can be
// grown locally with `go test -fuzz=FuzzCodecRoundTrip ./internal/server/`.
func FuzzCodecRoundTrip(f *testing.F) {
	// Every wire type is a batch; the seeds hold batches of 0, 1 and many
	// items.
	seeds := []string{
		`{"checkins":[]}`,
		`{"checkins":[{"device_id":"a","cpu":0.5,"mem":0.25}]}`,
		`{"checkins":[{"device_id":"a","cpu":1,"mem":0},{"device_id":"b"},null]}`,
		`{"results":[]}`,
		`{"results":[{"assigned":true,"job_id":-1}]}`,
		`{"results":[{},{"assigned":true,"job_id":3,"job_name":"j","round":2},{"error":"busy"}]}`,
		`{"reports":[]}`,
		`{"reports":[{"device_id":"d","job_id":7,"ok":true,"duration_seconds":12.5}]}`,
		`{"reports":[{"device_id":"d","job_id":7,"ok":false,"duration_seconds":0},{}]}`,
		`{"results":[{},{"error":"x"}]}`,
		` { "checkins" : [ { "device_id" : null , "cpu" : 1e-9 , "mem" : 2E+1 } ] } `,
		`{"checkins":[{"device_id":"é\"\\\nπ"}]}`,
		` { "reports" : [ { "ok" : null , "job_id" : -0 , "duration_seconds" : 1E-3 } ] } `,
		`{"results":[{"job_name":"\u00e9\t","policy":"venn","assigned":false}]}`,
		`{"results":[{"error":"\u0097"},{}]}`,
		`{"checkins":[{"device_id":"dup","cpu":1,"cpu":2}]}`,
		`{"reports":null}`,
		`{"results":null}`,
		`null`,
		`{}`,
		`{"checkins":null}`,
	}
	for sel := byte(0); sel < 4; sel++ {
		for _, s := range seeds {
			f.Add(sel, []byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		switch sel % 4 {
		case 0:
			roundTrip[CheckInBatchRequest](t, data)
		case 1:
			roundTrip[CheckInBatchResponse](t, data)
		case 2:
			roundTrip[ReportBatchRequest](t, data)
		case 3:
			roundTrip[ReportBatchResponse](t, data)
		}
	})
}

// jsonCodec is the method pair every fuzzed wire type implements.
type jsonCodec interface {
	json.Marshaler
	json.Unmarshaler
}

func roundTrip[T any](t *testing.T, data []byte) {
	var v T
	u, ok := any(&v).(jsonCodec)
	if !ok {
		t.Fatalf("%T does not implement both codec directions", v)
	}
	if err := u.UnmarshalJSON(data); err != nil {
		return // rejected input — fine, as long as it didn't panic
	}
	buf, err := u.MarshalJSON()
	if err != nil {
		t.Fatalf("accepted %q but cannot re-marshal: %v", data, err)
	}
	var v2 T
	u2 := any(&v2).(jsonCodec)
	if err := u2.UnmarshalJSON(buf); err != nil {
		t.Fatalf("own output %q does not re-parse: %v", buf, err)
	}
	buf2, err := u2.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	// The first decode-encode pass may normalize (invalid UTF-8 in string
	// fields becomes U+FFFD, exactly like encoding/json); from the second
	// generation on, bytes and values must be a fixed point.
	var v3 T
	u3 := any(&v3).(jsonCodec)
	if err := u3.UnmarshalJSON(buf2); err != nil {
		t.Fatalf("normalized output %q does not re-parse: %v", buf2, err)
	}
	buf3, err := u3.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(buf2) != string(buf3) {
		t.Fatalf("marshal not stable past normalization:\n second %s\n third  %s\n input %q", buf2, buf3, data)
	}
	if !reflect.DeepEqual(v2, v3) {
		t.Fatalf("round trip diverged:\n%+v\n%+v\ninput %q", v2, v3, data)
	}
}

// refFloat is jscan.float before its decimal fast path: the whole token
// through strconv.ParseFloat. FuzzJSONFloat holds the fast path to it.
func refFloat(s *jscan) (float64, error) {
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

// FuzzJSONFloat: for any bytes, jscan.float and the reference agree on
// accepting them, on the value's bits and on where the cursor stops, so the
// fast path changes no decoded score and no verdict.
func FuzzJSONFloat(f *testing.F) {
	rng := stats.NewRNG(1)
	for i := 0; i < 16; i++ {
		f.Add(strconv.FormatFloat(rng.Float64(), 'g', -1, 64))
		f.Add(strconv.FormatFloat(-rng.Float64()*1e6, 'f', -1, 64))
	}
	for _, s := range []string{
		"9007199254740991", "9007199254740992", "9007199254740993", // 2^53-1, 2^53, 2^53+1
		"9.007199254740991", "0.9007199254740992", "-900719925474099.3",
		"1234567890123456789", "0.1234567890123456789", // 19 digits
		"12345678901234567890", "1.2345678901234567890", // 20 digits
		"0.0000000000000000000001", "0.00000000000000000000001", "1e22", "1e23",
		"-0", "0", "0.", ".5", "01", "00.5", "1e5", "1E-5", "1.5.5", "1.5e", "1.5+", "1-", "-", "--1",
		"null", " 0.5 ", "0.5,", "0.5}", "0x1p-2", "1_000", "Inf", "NaN", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		got, want := jscan{b: []byte(in)}, jscan{b: []byte(in)}
		gf, gerr := got.float()
		wf, werr := refFloat(&want)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%q: error %v, reference %v", in, gerr, werr)
		}
		if gerr == nil && math.Float64bits(gf) != math.Float64bits(wf) {
			t.Fatalf("%q: %v (%#x), reference %v (%#x)", in, gf, math.Float64bits(gf), wf, math.Float64bits(wf))
		}
		if got.i != want.i {
			t.Fatalf("%q: cursor at %d, reference at %d", in, got.i, want.i)
		}
	})
}
