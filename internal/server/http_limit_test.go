package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestBodyLimits pins the request-body bounds: an over-limit payload is
// answered with 413 and code toolarge before it can balloon memory, on the
// job endpoint (a fixed 1 MiB bound) and on the batch endpoints (a
// configurable one).
func TestBodyLimits(t *testing.T) {
	m := NewManager(Config{})
	srv := httptest.NewServer(NewHandler(m, HandlerConfig{MaxBatchBodyBytes: 1024}))
	defer srv.Close()

	post := func(path string, body []byte) int {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusRequestEntityTooLarge {
			var e struct {
				Code Code `json:"code"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Code != CodeTooLarge {
				t.Errorf("POST %s: 413 body code %v (%v), want CodeTooLarge", path, e.Code, err)
			}
		}
		return resp.StatusCode
	}

	// Within bounds: normal processing.
	if code := post("/v1/checkin/batch", []byte(`{"checkins":[{"device_id":"a","cpu":0.5,"mem":0.5}]}`)); code != http.StatusOK {
		t.Errorf("small batch status %d", code)
	}
	if code := post("/v1/jobs", []byte(`{"name":"j","category":"General","demand_per_round":1,"rounds":1}`)); code != http.StatusCreated {
		t.Errorf("small job spec status %d", code)
	}

	// A job spec over 1 MiB trips the fixed bound.
	big := []byte(fmt.Sprintf(`{"name":%q,"category":"General","demand_per_round":1,"rounds":1}`, strings.Repeat("x", defaultMaxBodyBytes)))
	if code := post("/v1/jobs", big); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized job spec status %d, want 413", code)
	}

	// Same for the batch endpoint and its separate bound.
	var batch bytes.Buffer
	batch.WriteString(`{"checkins":[`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			batch.WriteByte(',')
		}
		fmt.Fprintf(&batch, `{"device_id":"dev-%06d","cpu":0.5,"mem":0.5}`, i)
	}
	batch.WriteString(`]}`)
	if code := post("/v1/checkin/batch", batch.Bytes()); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch body status %d, want 413", code)
	}

	// The defaults still admit a normal large-ish batch.
	srv2 := httptest.NewServer(Handler(m))
	defer srv2.Close()
	resp, err := http.Post(srv2.URL+"/v1/checkin/batch", "application/json", bytes.NewReader(batch.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("default-bound batch status %d", resp.StatusCode)
	}
}
