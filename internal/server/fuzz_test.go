package server

import (
	"encoding/json"
	"reflect"
	"testing"
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
