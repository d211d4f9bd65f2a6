package server

import (
	"errors"
	"testing"
)

// newTestService builds a manager + service pair on a manual clock.
func newTestService(t *testing.T) (*Service, *Manager) {
	t.Helper()
	m := NewManager(Config{})
	return NewService(m, TransportHTTP), m
}

// TestServiceTypedErrors pins the error codes each failure class carries —
// the contract every transport adapter maps from. The service itself is
// exercised without any HTTP machinery.
func TestServiceTypedErrors(t *testing.T) {
	svc, _ := newTestService(t)

	if _, err := svc.RegisterJob(JobSpec{Category: "nope", DemandPerRound: 1, Rounds: 1}); ErrCode(err) != CodeInvalid {
		t.Errorf("unknown category: code %v, want CodeInvalid", ErrCode(err))
	}
	if !errors.Is(func() error {
		_, err := svc.RegisterJob(JobSpec{Category: "nope", DemandPerRound: 1, Rounds: 1})
		return err
	}(), ErrUnknownCategory) {
		t.Error("service error must unwrap to ErrUnknownCategory")
	}

	if _, err := svc.JobStatusByID(12345); ErrCode(err) != CodeNotFound {
		t.Errorf("unknown job: code %v, want CodeNotFound", ErrCode(err))
	}

	// A check-in or report is served as a batch; what fails on one item is
	// that item's Error, the sentinel's message.
	checkIn := func(ci CheckIn) CheckInResult {
		res, _, err := svc.CheckInBatchBuf(&BatchBuf{CheckIns: []CheckIn{ci}}, RawItems{}, false, nil)
		if err != nil || len(res) != 1 {
			t.Fatalf("check-in batch of one: %v, %d results", err, len(res))
		}
		return res[0]
	}
	if res := checkIn(CheckIn{}); res.Error != errDeviceIDMissing.Error() {
		t.Errorf("missing device_id: item error %q, want %q", res.Error, errDeviceIDMissing)
	}

	// Busy device: register a job so the first check-in gets assigned, then
	// check in again before reporting.
	if _, err := svc.RegisterJob(JobSpec{Category: "General", DemandPerRound: 1, Rounds: 1}); err != nil {
		t.Fatal(err)
	}
	if res := checkIn(CheckIn{DeviceID: "d1", CPU: 0.9, Mem: 0.9}); res.Error != "" || !res.Assigned {
		t.Fatalf("first check-in: %+v", res)
	}
	if res := checkIn(CheckIn{DeviceID: "d1", CPU: 0.9, Mem: 0.9}); res.Error != ErrDeviceBusy.Error() {
		t.Errorf("busy device: item error %q, want %q", res.Error, ErrDeviceBusy)
	}

	res, _, err := svc.ReportBatchBuf(&BatchBuf{Reports: []Report{{DeviceID: "ghost", OK: true}}}, RawItems{}, false, nil)
	if err != nil || len(res) != 1 || res[0].Error != ErrUnknownDevice.Error() {
		t.Errorf("unknown device report: %+v, %v; want item error %q", res, err, ErrUnknownDevice)
	}

	over := make([]CheckIn, MaxBatch+1)
	for i := range over {
		over[i].DeviceID = "x"
	}
	if _, err := svc.CheckInBatchLocal(CheckInBatchRequest{CheckIns: over}, nil); ErrCode(err) != CodeInvalid {
		t.Errorf("oversize batch: code %v, want CodeInvalid", ErrCode(err))
	}
	if _, err := svc.ReportBatchLocal(ReportBatchRequest{Reports: make([]Report, MaxBatch+1)}, nil); ErrCode(err) != CodeInvalid {
		t.Errorf("oversize report batch: code %v, want CodeInvalid", ErrCode(err))
	}

	// Non-service errors classify as CodeInvalid.
	if ErrCode(errors.New("plain")) != CodeInvalid {
		t.Error("plain error must classify as CodeInvalid")
	}
}

// fakeStreamServer is a StreamServer reporting fixed counters.
type fakeStreamServer struct{ tel StreamTelemetry }

func (f *fakeStreamServer) StreamTelemetry() StreamTelemetry { return f.tel }

// TestStreamTelemetryHook checks the stream server's counters pass through
// into MetricsSnapshot, including the compare-on-clear semantics a restarted
// stream listener relies on.
func TestStreamTelemetryHook(t *testing.T) {
	m := NewManager(Config{})
	if mt := m.MetricsSnapshot(); mt.StreamConns != 0 || mt.StreamFramesIn != 0 {
		t.Fatalf("unattached stream telemetry must be zero, got %+v", mt)
	}
	src := &fakeStreamServer{tel: StreamTelemetry{StreamConns: 3, StreamFramesIn: 70, StreamFramesOut: 68}}
	m.SetStreamServer(src)
	mt := m.MetricsSnapshot()
	if mt.StreamConns != 3 || mt.StreamFramesIn != 70 || mt.StreamFramesOut != 68 {
		t.Errorf("stream telemetry not surfaced: %+v", mt)
	}
	// A stale clear (old listener shutting down after a new one attached)
	// must not detach the new server.
	src2 := &fakeStreamServer{tel: StreamTelemetry{StreamConns: 1}}
	m.SetStreamServer(src2)
	m.ClearStreamServer(src)
	if mt := m.MetricsSnapshot(); mt.StreamConns != 1 {
		t.Errorf("stale clear clobbered the live server: %+v", mt)
	}
	m.ClearStreamServer(src2)
	if mt := m.MetricsSnapshot(); mt.StreamConns != 0 {
		t.Errorf("detached stream telemetry must read zero, got %d conns", mt.StreamConns)
	}
}
