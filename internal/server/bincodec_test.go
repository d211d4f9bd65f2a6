package server

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestBinCodecRoundTrip pins value-level round trips through the v2 binary
// codec for representative shapes of every item type, each carried in a
// batch of one, beside batches of zero and many — including shapes the
// manager never emits (lossless encoding is what makes the codec safe to
// extend).
func TestBinCodecRoundTrip(t *testing.T) {
	ciOne := func(ci CheckIn) binCodec { return &CheckInBatchRequest{CheckIns: []CheckIn{ci}} }
	resOne := func(r CheckInResult) binCodec { return &CheckInBatchResponse{Results: []CheckInResult{r}} }
	vals := []binCodec{
		ciOne(CheckIn{}),
		ciOne(CheckIn{DeviceID: "dev-0042", CPU: 0.75, Mem: 0.5}),
		ciOne(CheckIn{DeviceID: strings.Repeat("x", 300), CPU: math.Inf(1), Mem: -0}),
		resOne(CheckInResult{}),
		resOne(CheckInResult{Assignment: Assignment{Assigned: true, JobID: 12, Round: 3, JobName: "resnet"}}),
		resOne(CheckInResult{Assignment: Assignment{Assigned: true}}), // assigned with zero tail: flags-only
		resOne(CheckInResult{Assignment: Assignment{JobID: -5}}),      // tail without assigned
		resOne(CheckInResult{Assignment: Assignment{Assigned: true, JobID: 1, JobName: "j"}}),
		resOne(CheckInResult{Error: "device busy"}),
		&ReportBatchRequest{Reports: []Report{{DeviceID: "d", JobID: -1, OK: false, DurationSeconds: 0.001}}},
		&ReportBatchRequest{Reports: []Report{{DeviceID: "", JobID: 1 << 40, OK: true}}},
		&ReportBatchResponse{Results: []ReportResult{{}}},
		&ReportBatchResponse{Results: []ReportResult{{Error: "unknown job 9"}}},
		&CheckInBatchRequest{},
		&CheckInBatchRequest{CheckIns: []CheckIn{{DeviceID: "a", CPU: 1}, {DeviceID: "b", Mem: 1}}},
		&CheckInBatchResponse{},
		&CheckInBatchResponse{Results: []CheckInResult{{}, {Error: "busy"}, {Assignment: Assignment{Assigned: true, JobID: 2}}}},
		&ReportBatchRequest{},
		&ReportBatchRequest{Reports: []Report{{DeviceID: "d", JobID: 7, OK: true, DurationSeconds: 3.5}, {}}},
		&ReportBatchResponse{},
		&ReportBatchResponse{Results: []ReportResult{{}, {Error: "x"}}},
	}
	for _, v := range vals {
		buf, err := v.MarshalBinary()
		if err != nil {
			t.Fatalf("%T marshal: %v", v, err)
		}
		got := reflect.New(reflect.TypeOf(v).Elem()).Interface().(binCodec)
		if err := got.UnmarshalBinary(buf); err != nil {
			t.Fatalf("%T unmarshal %x: %v", v, buf, err)
		}
		if !reflect.DeepEqual(v, got) {
			t.Errorf("%T round trip:\nwant %+v\ngot  %+v", v, v, got)
		}
	}
}

// TestBinCodecMatchesJSON pins cross-codec equivalence: a value carried
// over a v2 binary frame must re-marshal to exactly the JSON a v1 frame
// would have carried, which is what makes mixed-version federations
// byte-identical at the payload level.
func TestBinCodecMatchesJSON(t *testing.T) {
	resp := CheckInBatchResponse{Results: []CheckInResult{
		{},
		{Assignment: Assignment{Assigned: true, JobID: 3, Round: 1, JobName: "mobilenet"}},
		{Error: "device busy"},
	}}
	wantJSON, err := resp.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := resp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var decoded CheckInBatchResponse
	if err := decoded.UnmarshalBinary(bin); err != nil {
		t.Fatal(err)
	}
	gotJSON, err := decoded.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("binary hop changed the payload:\nwant %s\ngot  %s", wantJSON, gotJSON)
	}
}

// TestBinCodecCompactUnassigned pins the size property the layout was
// designed around: the overwhelmingly common "no work" batch reply costs
// one byte per device.
func TestBinCodecCompactUnassigned(t *testing.T) {
	resp := CheckInBatchResponse{Results: make([]CheckInResult, 1000)}
	buf, err := resp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 + 1000; len(buf) != want { // uvarint(1000) = 2 bytes + 1 flag byte each
		t.Fatalf("unassigned batch encoded to %d bytes, want %d", len(buf), want)
	}
	js, err := resp.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf)*3 >= len(js) {
		t.Fatalf("binary (%dB) should be >3x smaller than JSON (%dB)", len(buf), len(js))
	}
}

// TestBinCodecRejects pins the decoder's defenses: trailing bytes, lying
// batch counts, oversized strings, truncation, unknown flag bits, and
// non-boolean bools are all errors, never panics or huge allocations.
func TestBinCodecRejects(t *testing.T) {
	one := CheckInBatchRequest{CheckIns: []CheckIn{{DeviceID: "a", CPU: 1, Mem: 1}}}
	good, err := one.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"trailing bytes":  append(append([]byte{}, good...), 0),
		"truncated":       good[:len(good)-1],
		"oversized str":   {0x01, 0xFF, 0xFF, 0x03, 'a'},
		"empty":           {},
		"bad count":       {0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
		"overflow varint": {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
	}
	for name, data := range cases {
		var b CheckInBatchRequest
		if err := b.UnmarshalBinary(data); err == nil {
			t.Errorf("CheckInBatchRequest accepted %s input %x", name, data)
		}
	}
	// A count above MaxBatch is rejected before allocation even if the
	// payload is long enough to look plausible.
	big := make([]byte, 4+MaxBatch+10)
	big[0], big[1], big[2] = 0x81, 0xC0, 0x01 // uvarint(24577) > MaxBatch
	var b CheckInBatchRequest
	if err := b.UnmarshalBinary(big); err == nil {
		t.Error("batch count above MaxBatch accepted")
	}
	// Unknown flag bits must be rejected (forward-compatibility guard).
	var cr CheckInBatchResponse
	if err := cr.UnmarshalBinary([]byte{0x01, 0x80}); err == nil {
		t.Error("CheckInResult accepted unknown flag bit")
	}
	var rr ReportBatchResponse
	if err := rr.UnmarshalBinary([]byte{0x01, 0x02}); err == nil {
		t.Error("ReportResult accepted unknown flag bit")
	}
	// Report.OK must be exactly 0 or 1.
	rep := ReportBatchRequest{Reports: []Report{{DeviceID: "d", OK: true}}}
	buf, _ := rep.MarshalBinary()
	okOff := len(buf) - 9 // bool sits 9 bytes from the end (1 + 8-byte f64)
	buf[okOff] = 2
	var r2 ReportBatchRequest
	if err := r2.UnmarshalBinary(buf); err == nil {
		t.Error("Report accepted bool byte 2")
	}
}

// TestBinCodecEmptyCheckIn: a CheckIn with all-zero fields must still parse
// (the manager, not the codec, decides whether an empty device_id is
// acceptable — exactly like the JSON codec).
func TestBinCodecEmptyCheckIn(t *testing.T) {
	req := CheckInBatchRequest{CheckIns: []CheckIn{{}}}
	buf, err := req.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got CheckInBatchRequest
	if err := got.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	if len(got.CheckIns) != 1 || got.CheckIns[0] != (CheckIn{}) {
		t.Fatalf("empty CheckIn round trip: %+v", got.CheckIns)
	}
}
