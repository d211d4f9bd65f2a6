package server

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"venn/internal/stats"
)

// stdlib aliases break the custom-method dispatch so the reflective
// round trip can serve as the reference implementation.
type (
	stdCheckInBatchRequest struct {
		CheckIns []stdCheckIn `json:"checkins"`
	}
	stdCheckIn struct {
		DeviceID string  `json:"device_id"`
		CPU      float64 `json:"cpu"`
		Mem      float64 `json:"mem"`
	}
	stdReportBatchRequest struct {
		Reports []stdReport `json:"reports"`
	}
	stdReport struct {
		DeviceID        string  `json:"device_id"`
		JobID           int     `json:"job_id"`
		OK              bool    `json:"ok"`
		DurationSeconds float64 `json:"duration_seconds"`
	}
)

// trickyStrings exercise the escape fallback in both directions.
var trickyStrings = []string{
	"",
	"plain-ascii-id",
	`quote"inside`,
	`back\slash`,
	"tab\tnewline\n",
	"unicode-π-雪-🚀",
	"<html>&entities</html>",
	"control",
}

func TestCheckInBatchRequestRoundTrip(t *testing.T) {
	rng := stats.NewRNG(5)
	var cis []CheckIn
	for i, s := range trickyStrings {
		cis = append(cis, CheckIn{DeviceID: s, CPU: rng.Float64(), Mem: float64(i)})
	}
	cis = append(cis,
		CheckIn{DeviceID: "x", CPU: 0, Mem: 1},
		CheckIn{DeviceID: "y", CPU: 1e-9, Mem: math.MaxFloat64},
		CheckIn{DeviceID: "z", CPU: 0.1234567890123456789, Mem: -3},
	)
	req := CheckInBatchRequest{CheckIns: cis}
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	// Our bytes must decode identically through the pure-stdlib reference.
	var ref stdCheckInBatchRequest
	if err := json.Unmarshal(buf, &ref); err != nil {
		t.Fatalf("stdlib cannot parse custom output %s: %v", buf, err)
	}
	if len(ref.CheckIns) != len(cis) {
		t.Fatalf("item count %d, want %d", len(ref.CheckIns), len(cis))
	}
	for i := range cis {
		if ref.CheckIns[i].DeviceID != cis[i].DeviceID ||
			ref.CheckIns[i].CPU != cis[i].CPU || ref.CheckIns[i].Mem != cis[i].Mem {
			t.Errorf("item %d: %+v != %+v", i, ref.CheckIns[i], cis[i])
		}
	}
	// And stdlib-produced bytes must decode identically through ours.
	refBuf, err := json.Marshal(stdCheckInBatchRequest{CheckIns: ref.CheckIns})
	if err != nil {
		t.Fatal(err)
	}
	var back CheckInBatchRequest
	if err := back.UnmarshalJSON(refBuf); err != nil {
		t.Fatalf("custom cannot parse stdlib output: %v", err)
	}
	if !reflect.DeepEqual(back.CheckIns, cis) {
		t.Errorf("custom decode of stdlib bytes diverged:\n%+v\n%+v", back.CheckIns, cis)
	}
}

// TestCheckInUnmarshalFlexibleSyntax feeds each item shape through the batch
// decoder, the one that serves check-ins.
func TestCheckInUnmarshalFlexibleSyntax(t *testing.T) {
	cases := []struct {
		in   string
		want CheckIn
	}{
		{`{"device_id":"a","cpu":0.5,"mem":0.25}`, CheckIn{DeviceID: "a", CPU: 0.5, Mem: 0.25}},
		{"  {\n\t\"mem\" : 1e-1 , \"device_id\" : \"b\" , \"cpu\" : 2E0 }  ", CheckIn{DeviceID: "b", CPU: 2, Mem: 0.1}},
		{`{"device_id":"c","cpu":3,"mem":-0.5}`, CheckIn{DeviceID: "c", CPU: 3, Mem: -0.5}},
		{`{"device_id":null,"cpu":null,"mem":null}`, CheckIn{}},
		{`{}`, CheckIn{}},
		{`null`, CheckIn{}},
		{`{"device_id":"dup","cpu":1,"cpu":2,"mem":0}`, CheckIn{DeviceID: "dup", CPU: 2}},
		{`{"device_id":"é\"\\\n","cpu":0,"mem":0}`, CheckIn{DeviceID: "é\"\\\n"}},
	}
	for _, c := range cases {
		var got CheckInBatchRequest
		if err := got.UnmarshalJSON([]byte(`{"checkins":[` + c.in + `]}`)); err != nil {
			t.Errorf("%s: %v", c.in, err)
			continue
		}
		if len(got.CheckIns) != 1 || got.CheckIns[0] != c.want {
			t.Errorf("%s: got %+v, want %+v", c.in, got.CheckIns, c.want)
		}
	}
}

func TestCheckInUnmarshalRejectsGarbage(t *testing.T) {
	bad := []string{
		`{`,
		`[]`,
		`{"device_id":}`,
		`{"device_id":"a"`,
		`{"device_id":"a",}`,
		`{"cpu":"0.5"}`,
		`{"unknown_field":1}`,
		`{"device_id":"a" "cpu":1}`,
		"{\"device_id\":\"\x01raw-control\"}",
	}
	for _, in := range bad {
		var req CheckInBatchRequest
		if err := req.UnmarshalJSON([]byte(`{"checkins":[` + in + `]}`)); err == nil {
			t.Errorf("%q: expected error, got %+v", in, req.CheckIns)
		}
	}
	// Unknown fields must be rejected batch-deep and at the top, matching the
	// former DisallowUnknownFields decoder; an empty body is malformed.
	for _, in := range []string{``, `{"checkins":[{"device_id":"a","bogus":1}]}`, `{"bogus":[]}`} {
		var req CheckInBatchRequest
		if err := req.UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("%q: expected error", in)
		}
	}
}

func TestCheckInBatchResponseRoundTrip(t *testing.T) {
	resp := CheckInBatchResponse{Results: []CheckInResult{
		{},
		{Assignment: Assignment{Assigned: true, JobID: 0, JobName: "job0", Round: 1}},
		{Assignment: Assignment{Assigned: true, JobID: 42, JobName: `we"ird`, Round: 3}},
		{Error: ErrDeviceBusy.Error()},
		{Error: `err with "quotes" and π`},
	}}
	buf, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var back CheckInBatchResponse
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("decode %s: %v", buf, err)
	}
	if !reflect.DeepEqual(back, resp) {
		t.Errorf("round trip diverged:\n%+v\n%+v", back, resp)
	}
	// The unassigned result must be the empty object.
	if !strings.HasPrefix(string(buf), `{"results":[{},`) {
		t.Errorf("unassigned result not compact: %s", buf)
	}
}

func TestReportBatchRoundTrip(t *testing.T) {
	req := ReportBatchRequest{Reports: []Report{
		{DeviceID: "d1", JobID: 7, OK: true, DurationSeconds: 12.75},
		{DeviceID: trickyStrings[4], JobID: -1, OK: false, DurationSeconds: 1e-3},
	}}
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var ref stdReportBatchRequest
	if err := json.Unmarshal(buf, &ref); err != nil {
		t.Fatalf("stdlib cannot parse %s: %v", buf, err)
	}
	var back ReportBatchRequest
	refBuf, _ := json.Marshal(ref)
	if err := back.UnmarshalJSON(refBuf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, req) {
		t.Errorf("round trip diverged:\n%+v\n%+v", back, req)
	}

	resp := ReportBatchResponse{Results: []ReportResult{{}, {Error: "boom"}}}
	buf, err = json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var rback ReportBatchResponse
	if err := json.Unmarshal(buf, &rback); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rback, resp) {
		t.Errorf("response round trip diverged:\n%+v\n%+v", rback, resp)
	}
}

// TestCodecRandomizedEquivalence fuzzes batches through both codecs and
// demands field-exact agreement with the stdlib reference.
func TestCodecRandomizedEquivalence(t *testing.T) {
	rng := stats.NewRNG(123)
	alphabet := []rune("abz09_-π\"\\\n\t 雪")
	randString := func() string {
		n := rng.Intn(12)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(8)
		cis := make([]stdCheckIn, n)
		for i := range cis {
			cis[i] = stdCheckIn{DeviceID: randString(), CPU: rng.Float64()*2 - 1, Mem: rng.Float64()}
		}
		refBuf, err := json.Marshal(stdCheckInBatchRequest{CheckIns: cis})
		if err != nil {
			t.Fatal(err)
		}
		var custom CheckInBatchRequest
		if err := custom.UnmarshalJSON(refBuf); err != nil {
			t.Fatalf("trial %d: custom decode of %s: %v", trial, refBuf, err)
		}
		customBuf, err := json.Marshal(custom)
		if err != nil {
			t.Fatal(err)
		}
		var ref2 stdCheckInBatchRequest
		if err := json.Unmarshal(customBuf, &ref2); err != nil {
			t.Fatalf("trial %d: stdlib decode of %s: %v", trial, customBuf, err)
		}
		for i := range cis {
			if cis[i] != ref2.CheckIns[i] {
				t.Fatalf("trial %d item %d: %+v != %+v", trial, i, cis[i], ref2.CheckIns[i])
			}
		}
	}
}

func BenchmarkCheckInBatchDecode(b *testing.B) {
	cis := make([]CheckIn, 64)
	rng := stats.NewRNG(1)
	for i := range cis {
		cis[i] = CheckIn{DeviceID: fmt.Sprintf("load-%06d", i), CPU: rng.Float64(), Mem: rng.Float64()}
	}
	buf, _ := json.Marshal(CheckInBatchRequest{CheckIns: cis})
	b.Run("custom", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req CheckInBatchRequest
			if err := req.UnmarshalJSON(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req stdCheckInBatchRequest
			if err := json.Unmarshal(buf, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCheckInBatchEncode(b *testing.B) {
	results := make([]CheckInResult, 64)
	results[0].Assignment = Assignment{Assigned: true, JobID: 3, JobName: "job3", Round: 2}
	resp := CheckInBatchResponse{Results: results}
	b.Run("custom", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := resp.MarshalJSON(); err != nil {
				b.Fatal(err)
			}
		}
	})
	std := stdCheckInBatchResponse{Results: resp.Results}
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(std); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCheckInBatchRequestEncode times the client side of a check-in:
// a 64-item request with seed-1 scores, two floats per item.
func BenchmarkCheckInBatchRequestEncode(b *testing.B) {
	cis := make([]CheckIn, 64)
	rng := stats.NewRNG(1)
	for i := range cis {
		cis[i] = CheckIn{DeviceID: fmt.Sprintf("load-%06d", i), CPU: rng.Float64(), Mem: rng.Float64()}
	}
	req := CheckInBatchRequest{CheckIns: cis}
	b.Run("custom", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := req.MarshalJSON(); err != nil {
				b.Fatal(err)
			}
		}
	})
	std := make([]stdCheckIn, len(cis))
	for i, ci := range cis {
		std[i] = stdCheckIn(ci)
	}
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(stdCheckInBatchRequest{CheckIns: std}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

type stdCheckInBatchResponse struct {
	Results []CheckInResult `json:"results"`
}
