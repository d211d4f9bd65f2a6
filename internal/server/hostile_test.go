package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// hostileFloats are the values a device or a job owner can send that no
// duration or scale may take, each with the JSON literal that carries it.
// JSON has no NaN and no infinity: their literals are refused by the
// decoder, the finite negatives reach the manager.
var hostileFloats = []struct {
	name string
	v    float64
	lit  string
}{
	{"NaN", math.NaN(), "NaN"},
	{"+Inf", math.Inf(1), "1e999"},
	{"-Inf", math.Inf(-1), "-1e999"},
	{"negative", -100, "-100"},
	{"negative-subnormal", -math.SmallestNonzeroFloat64, "-5e-324"},
}

// coreState is what a refused report or job must leave unchanged.
type coreState struct {
	checkIns, assignments, reports, failures, busy int64
	jobs                                           string
}

func stateOf(t *testing.T, m *Manager) coreState {
	t.Helper()
	mt := m.MetricsSnapshot()
	jobs, err := json.Marshal(m.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	return coreState{mt.CheckIns, mt.Assignments, mt.Reports, mt.Failures, mt.BusyDevices, string(jobs)}
}

// post serves body on route through the HTTP handler and returns the status
// and the decoded reply.
func post(t *testing.T, m *Manager, route, body string, reply any) int {
	t.Helper()
	rec := httptest.NewRecorder()
	Handler(m).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, strings.NewReader(body)))
	if err := json.Unmarshal(rec.Body.Bytes(), reply); err != nil {
		t.Fatalf("%s reply %q: %v", route, rec.Body, err)
	}
	return rec.Code
}

// TestHostileDurationAndTaskScale drives each hostile value through the
// Manager, the binary codec and the JSON codec, as a report's
// duration_seconds and as a job's task_scale. A report gets ErrBadDuration
// as its item error before it frees its device or reaches the profiler, and
// the device's task stays in flight: a valid report after it is accepted. A
// job is refused with CodeInvalid. A job whose demand_per_round × rounds
// exceeds math.MaxInt32, whose remaining service would wrap (2^32 × 2^32
// wraps to 0 and jumps the SRSF queue), gets ErrBadDemand the same way.
// Both job errors are checked through the Manager, the Service and the HTTP
// route. Nothing else changes.
func TestHostileDurationAndTaskScale(t *testing.T) {
	for _, hv := range hostileFloats {
		t.Run(hv.name, func(t *testing.T) {
			for _, leg := range []string{"manager", "binary", "json"} {
				t.Run("report/"+leg, func(t *testing.T) {
					m := newTestManager(newFakeClock())
					if _, err := m.RegisterJob(JobSpec{Name: "j", Category: "General", DemandPerRound: 2, Rounds: 1}); err != nil {
						t.Fatal(err)
					}
					asg, err := checkInOne(m, CheckIn{DeviceID: "d", CPU: 0.9, Mem: 0.9})
					if err != nil || !asg.Assigned {
						t.Fatalf("check-in: %+v, %v", asg, err)
					}
					before := stateOf(t, m)
					r := Report{DeviceID: "d", JobID: asg.JobID, OK: true, DurationSeconds: hv.v}
					var got string
					switch leg {
					case "manager":
						got = m.ReportBatch([]Report{r})[0].Error
					case "binary":
						payload, err := (&ReportBatchRequest{Reports: []Report{r}}).MarshalBinary()
						if err != nil {
							t.Fatal(err)
						}
						var b BatchBuf
						if err := b.DecodeReports(payload); err != nil {
							t.Fatal(err)
						}
						got = m.ReportBatchBuf(&b, nil)[0].Error
					case "json":
						body := fmt.Sprintf(`{"reports":[{"device_id":"d","job_id":%d,"ok":true,"duration_seconds":%s}]}`, asg.JobID, hv.lit)
						var reply struct {
							Results []ReportResult `json:"results"`
							Code    int            `json:"code"`
						}
						code := post(t, m, "/v1/report/batch", body, &reply)
						if math.IsNaN(hv.v) || math.IsInf(hv.v, 0) {
							// No JSON literal carries it: the decoder refuses
							// the whole batch.
							if code != http.StatusBadRequest || reply.Code != int(CodeInvalid) {
								t.Errorf("status %d, reply %+v, want %d with code %d", code, reply, http.StatusBadRequest, CodeInvalid)
							}
							got = ErrBadDuration.Error()
						} else if code != http.StatusOK || len(reply.Results) != 1 {
							t.Fatalf("status %d, reply %+v", code, reply)
						} else {
							got = reply.Results[0].Error
						}
					}
					if got != ErrBadDuration.Error() {
						t.Errorf("item error %q, want %q", got, ErrBadDuration)
					}
					if after := stateOf(t, m); after != before {
						t.Errorf("state changed:\n got %+v\nwant %+v", after, before)
					}
					if err := reportOne(m, Report{DeviceID: "d", JobID: asg.JobID, OK: true, DurationSeconds: 5}); err != nil {
						t.Fatal(err)
					}
					if st := stateOf(t, m); st.reports != before.reports+1 || st.busy != before.busy-1 {
						t.Errorf("a valid report after the refused one: %+v, before %+v", st, before)
					}
				})
			}
		})
	}
	// Each refused job spec, named by its value and the field that carries
	// it, with its JSON body and the error it gets. refusedLit marks a body
	// the decoder refuses before the spec reaches the manager.
	type specRow struct {
		name       string
		spec       JobSpec
		body       string
		want       error
		refusedLit bool
	}
	var rows []specRow
	for _, hv := range hostileFloats {
		rows = append(rows, specRow{
			name:       hv.name + "/task_scale",
			spec:       JobSpec{Name: "j", Category: "General", DemandPerRound: 1, Rounds: 1, TaskScale: hv.v},
			body:       `{"name":"j","category":"General","demand_per_round":1,"rounds":1,"task_scale":` + hv.lit + `}`,
			want:       ErrBadTaskScale,
			refusedLit: math.IsNaN(hv.v) || math.IsInf(hv.v, 0),
		})
	}
	huge := int(int64(1) << 32)
	for _, dr := range []struct {
		name           string
		demand, rounds int
	}{
		{"2^32x2^32", huge, huge},
		{"MaxInt32x2", math.MaxInt32, 2},
		{"2x2^30", 2, 1 << 30},
	} {
		rows = append(rows, specRow{
			name: dr.name + "/demand",
			spec: JobSpec{Name: "j", Category: "General", DemandPerRound: dr.demand, Rounds: dr.rounds},
			body: fmt.Sprintf(`{"name":"j","category":"General","demand_per_round":%d,"rounds":%d}`, dr.demand, dr.rounds),
			want: ErrBadDemand,
		})
	}
	for _, row := range rows {
		for _, leg := range []string{"manager", "service", "json"} {
			t.Run(row.name+"/"+leg, func(t *testing.T) {
				m := newTestManager(newFakeClock())
				before := stateOf(t, m)
				switch leg {
				case "manager":
					if _, err := m.RegisterJob(row.spec); !errors.Is(err, row.want) {
						t.Errorf("RegisterJob: %v, want %v", err, row.want)
					}
				case "service":
					if _, err := NewService(m, TransportHTTP).RegisterJob(row.spec); ErrCode(err) != CodeInvalid || !errors.Is(err, row.want) {
						t.Errorf("Service.RegisterJob: %v (code %d), want %v as CodeInvalid", err, ErrCode(err), row.want)
					}
				case "json":
					var reply struct {
						Error string `json:"error"`
						Code  int    `json:"code"`
					}
					code := post(t, m, "/v1/jobs", row.body, &reply)
					if code != http.StatusBadRequest || reply.Code != int(CodeInvalid) || !row.refusedLit && reply.Error != row.want.Error() {
						t.Errorf("POST /v1/jobs: status %d, reply %+v", code, reply)
					}
				}
				if after := stateOf(t, m); after != before {
					t.Errorf("state changed:\n got %+v\nwant %+v", after, before)
				}
			})
		}
	}
	// The bound itself is accepted.
	m := newTestManager(newFakeClock())
	if _, err := m.RegisterJob(JobSpec{Name: "j", Category: "General", DemandPerRound: math.MaxInt32, Rounds: 1}); err != nil {
		t.Errorf("RegisterJob at the bound: %v", err)
	}
}
