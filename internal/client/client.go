// Package client is the Go SDK for the venndaemon HTTP API: CL job owners
// use it to register jobs and poll status; device agents use it to check in
// and report task results. Check-ins and reports travel in batches, which
// amortize one round trip and one scheduler-lock acquisition over many
// devices; a lone device sends a batch of one.
package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"venn/internal/server"
)

// DefaultTimeout bounds one request round trip unless WithTimeout says
// otherwise.
const DefaultTimeout = 10 * time.Second

// Client talks to one venndaemon instance.
type Client struct {
	base string
	http *http.Client
}

func newHTTPClient(baseURL string, cfg config) *Client {
	h := cfg.httpClient
	if h == nil {
		h = &http.Client{Timeout: cfg.timeout}
	} else if cfg.timeoutSet {
		h.Timeout = cfg.timeout
	}
	return &Client{base: baseURL, http: h}
}

// RegisterJob submits a new CL job and returns its status (including ID).
func (c *Client) RegisterJob(spec server.JobSpec) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.post("/v1/jobs", spec, &st)
	return st, err
}

// JobStatus fetches one job's status.
func (c *Client) JobStatus(id int) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.get(fmt.Sprintf("/v1/jobs/%d", id), &st)
	return st, err
}

// Jobs lists all jobs.
func (c *Client) Jobs() ([]server.JobStatus, error) {
	var out []server.JobStatus
	err := c.get("/v1/jobs", &out)
	return out, err
}

// CheckInBatch announces availability for a whole batch of devices in one
// request. Results[i] answers cis[i]; per-item rejections surface in each
// result's Error field, not as a Go error. A NaN or infinite score fails the
// whole call with a *json.UnsupportedValueError before anything is sent.
func (c *Client) CheckInBatch(cis []server.CheckIn) ([]server.CheckInResult, error) {
	body, err := server.CheckInBatchRequest{CheckIns: cis}.MarshalJSON()
	if err != nil {
		return nil, err
	}
	resp := server.CheckInBatchResponse{Results: make([]server.CheckInResult, 0, len(cis))}
	if err := c.postBatch("/v1/checkin/batch", body, resp.UnmarshalJSON); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(cis) {
		return nil, fmt.Errorf("client: batch reply has %d results for %d check-ins", len(resp.Results), len(cis))
	}
	return resp.Results, nil
}

// ReportBatch submits a batch of task results in one request. Results[i]
// answers rs[i]. A NaN or infinite duration fails it as in CheckInBatch.
func (c *Client) ReportBatch(rs []server.Report) ([]server.ReportResult, error) {
	body, err := server.ReportBatchRequest{Reports: rs}.MarshalJSON()
	if err != nil {
		return nil, err
	}
	resp := server.ReportBatchResponse{Results: make([]server.ReportResult, 0, len(rs))}
	if err := c.postBatch("/v1/report/batch", body, resp.UnmarshalJSON); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(rs) {
		return nil, fmt.Errorf("client: batch reply has %d results for %d reports", len(resp.Results), len(rs))
	}
	return resp.Results, nil
}

// Metrics fetches the daemon's serving-throughput and latency metrics.
func (c *Client) Metrics() (server.Metrics, error) {
	var mt server.Metrics
	err := c.get("/v1/metrics", &mt)
	return mt, err
}

// Ping probes the daemon with the cheapest idempotent request, GET
// /v1/healthz, which takes no scheduler lock; an unhealthy daemon's 503
// fails it.
func (c *Client) Ping() error {
	return c.get("/v1/healthz", &struct{}{})
}

// Close releases idle connections held by the underlying HTTP transport.
func (c *Client) Close() error {
	c.http.CloseIdleConnections()
	return nil
}

// WaitForJob polls until the job completes or the timeout elapses.
func (c *Client) WaitForJob(id int, poll, timeout time.Duration) (server.JobStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.JobStatus(id)
		if err != nil {
			return st, err
		}
		if st.State == "done" {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("client: job %d not done after %v", id, timeout)
		}
		time.Sleep(poll)
	}
}

func (c *Client) post(path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

// replyBufs recycles batch reply bodies. The batch decoders copy every
// string they keep, so a buffer is free again once its reply is decoded; one
// grown past 1 MiB (transport.PutBuf's bound) is left to the GC.
var replyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// postBatch posts an encoded batch and hands the reply body to decode. The
// request body is not pooled: net/http may still read it after Do returns.
func (c *Client) postBatch(path string, body []byte, decode func([]byte) error) error {
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return statusError(resp)
	}
	buf := replyBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= 1<<20 {
			replyBufs.Put(buf)
		}
	}()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	return decode(buf.Bytes())
}

// get fetches a resource; any status of 300 or more fails it through
// statusError, as it does a POST.
func (c *Client) get(path string, out any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

func decodeResponse(resp *http.Response, out any) error {
	if resp.StatusCode >= 300 {
		return statusError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// statusError reads a failed reply's error body into an *APIError, or names
// the status when the body carries none.
func statusError(resp *http.Response) error {
	var apiErr struct {
		Error string `json:"error"`
		Code  int    `json:"code"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(body, &apiErr) == nil && apiErr.Error != "" {
		return &APIError{Code: server.Code(apiErr.Code), Status: resp.StatusCode, Msg: apiErr.Error}
	}
	return fmt.Errorf("client: status %d", resp.StatusCode)
}
