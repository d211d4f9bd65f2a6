package server

import (
	"encoding"
	"testing"
)

// FuzzCodecV2RoundTrip drives arbitrary bytes through every fixed-layout
// binary codec in bincodec.go (the wire protocol v2 payloads, all of them
// batches). For each wire type it demands:
//
//  1. UnmarshalBinary never panics and never over-allocates, whatever the
//     input claims (lying batch counts and string lengths are the classic
//     attack on length-prefixed formats).
//  2. What the decoder accepts re-marshals and re-parses to the same value
//     and the same bytes (round-trip stability). The first decode may
//     normalize (non-minimal varints re-encode minimally); from the second
//     generation on, bytes and values must be a fixed point.
//
// CI runs this with a short -fuzztime as a smoke pass alongside the v1
// JSON codec fuzz; grow the corpus locally with
// `go test -fuzz=FuzzCodecV2RoundTrip ./internal/server/`.
func FuzzCodecV2RoundTrip(f *testing.F) {
	// Seed with real encodings of representative values: every wire type is
	// a batch, seeded with 0, 1 and many items.
	seedVals := []binCodec{
		&CheckInBatchRequest{},
		&CheckInBatchRequest{CheckIns: []CheckIn{{DeviceID: "dev-1", CPU: 0.5, Mem: 0.25}}},
		&CheckInBatchRequest{CheckIns: []CheckIn{{DeviceID: "a", CPU: 1}, {DeviceID: "b"}, {}}},
		&CheckInBatchResponse{},
		&CheckInBatchResponse{Results: []CheckInResult{{Assignment: Assignment{Assigned: true, JobID: 3, Round: 2, JobName: "job"}}}},
		&CheckInBatchResponse{Results: []CheckInResult{{}, {Error: "device busy"}, {Assignment: Assignment{Assigned: true, JobID: -1}}}},
		&ReportBatchRequest{},
		&ReportBatchRequest{Reports: []Report{{DeviceID: "dev-1", JobID: 7, OK: true, DurationSeconds: 12.5}}},
		&ReportBatchRequest{Reports: []Report{{DeviceID: "d", JobID: 7}, {}}},
		&ReportBatchResponse{},
		&ReportBatchResponse{Results: []ReportResult{{Error: "unknown job"}}},
		&ReportBatchResponse{Results: []ReportResult{{}, {Error: "x"}}},
	}
	for sel := byte(0); sel < 4; sel++ {
		for _, v := range seedVals {
			b, err := v.MarshalBinary()
			if err != nil {
				f.Fatal(err)
			}
			// Each encoding whole, one byte short, and one byte long.
			f.Add(sel, b)
			f.Add(sel, b[:len(b)-1])
			f.Add(sel, append(b[:len(b):len(b)], 0))
		}
		f.Add(sel, []byte{})
		f.Add(sel, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	}
	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		switch sel % 4 {
		case 0:
			binRoundTrip[CheckInBatchRequest](t, data)
		case 1:
			binRoundTrip[CheckInBatchResponse](t, data)
		case 2:
			binRoundTrip[ReportBatchRequest](t, data)
		case 3:
			binRoundTrip[ReportBatchResponse](t, data)
		}
	})
}

// binCodec is the method pair every v2 wire type implements.
type binCodec interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

func binRoundTrip[T any](t *testing.T, data []byte) {
	var v T
	u, ok := any(&v).(binCodec)
	if !ok {
		t.Fatalf("%T does not implement both binary codec directions", v)
	}
	if err := u.UnmarshalBinary(data); err != nil {
		return // rejected input — fine, as long as it didn't panic
	}
	buf, err := u.MarshalBinary()
	if err != nil {
		t.Fatalf("accepted %q but cannot re-marshal: %v", data, err)
	}
	var v2 T
	u2 := any(&v2).(binCodec)
	if err := u2.UnmarshalBinary(buf); err != nil {
		t.Fatalf("own output %x does not re-parse: %v", buf, err)
	}
	buf2, err := u2.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Byte equality across generations is the invariant (not DeepEqual:
	// float fields may legitimately hold NaN, which never compares equal
	// to itself). The encoder is a pure function of the value, so stable
	// bytes prove the decoded values agree bit-for-bit.
	if string(buf) != string(buf2) {
		t.Fatalf("marshal not stable:\n first  %x\n second %x\n input %q", buf, buf2, data)
	}
}
