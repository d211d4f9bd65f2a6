// Unified client construction. Historically the SDK grew two parallel
// constructors — New for HTTP and NewStream for the framed TCP transport —
// with disjoint option types. client.New is now the single entry point:
//
//	c := client.New("http://host:8080")                  // HTTP (scheme ⇒ transport)
//	c := client.New("host:8081")                         // stream (bare host:port)
//	c := client.New("host:8081", client.WithTimeout(2*time.Second))
//
// Both transports implement API. NewStream returns the concrete
// *StreamClient, whose ForwardRaw the federation hop needs.
package client

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"venn/internal/server"
)

// API is the transport-neutral client surface: everything a job owner or a
// device agent calls, implemented by both the HTTP *Client and the
// *StreamClient. A device checks in and reports in batches; a single device
// sends a batch of one.
type API interface {
	RegisterJob(spec server.JobSpec) (server.JobStatus, error)
	JobStatus(id int) (server.JobStatus, error)
	Jobs() ([]server.JobStatus, error)
	WaitForJob(id int, poll, timeout time.Duration) (server.JobStatus, error)
	CheckInBatch(cis []server.CheckIn) ([]server.CheckInResult, error)
	ReportBatch(rs []server.Report) ([]server.ReportResult, error)
	Metrics() (server.Metrics, error)
	Ping() error
	Close() error
}

// config collects every knob of both transports; each constructor reads the
// subset that applies to it.
type config struct {
	timeout     time.Duration
	timeoutSet  bool
	httpClient  *http.Client
	streamConns int
	topology    bool
}

func defaultClientConfig() config {
	return config{
		timeout:     DefaultTimeout,
		streamConns: DefaultStreamConns,
	}
}

// Option customizes a client of either transport; options that do not
// apply to the chosen transport are ignored.
type Option func(*config)

// WithTimeout bounds one request round trip (dial included on the stream
// transport); default 10s.
func WithTimeout(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.timeout = d
			c.timeoutSet = true
		}
	}
}

// WithHTTPClient replaces the underlying *http.Client entirely — use it to
// tune the transport (connection pool size, keep-alives) for load
// generation. WithTimeout still applies on top if given.
func WithHTTPClient(h *http.Client) Option {
	return func(c *config) { c.httpClient = h }
}

// WithStreamConns sets the stream connection-pool size (default 2). More
// connections raise pipelining depth under heavy concurrent load; one is
// enough for a single agent.
func WithStreamConns(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.streamConns = n
		}
	}
}

// WithTopology makes a stream client ring-aware: it fetches the federation
// topology from its seed daemon, builds the daemons' consistent-hash ring
// locally, and partitions every check-in/report by device owner onto pooled
// per-member connections — eliminating server-side federation hops in a
// healthy cluster. Against a daemon with no federation layer the mode
// disables itself and the client behaves exactly as without it. Ignored by
// the HTTP transport. See StreamClient for the staleness and failover
// contract.
func WithTopology(on bool) Option {
	return func(c *config) { c.topology = on }
}

// New creates a client for the daemon at addr. The transport is inferred
// from the address — a URL scheme ("http://host:8080") selects HTTP, a bare
// host:port selects the framed stream protocol. The concrete type is
// *Client or *StreamClient; callers that need transport-specific extras can
// type-assert.
func New(addr string, opts ...Option) API {
	cfg := defaultClientConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if strings.Contains(addr, "://") {
		return newHTTPClient(addr, cfg)
	}
	return newStreamClient(addr, cfg)
}

// APIError is a typed server-side rejection carried over the HTTP
// transport. Code is the service layer's stable numeric wire code (see
// server.Code), taken from the response body's `code` field — classify
// failures by it, never by matching on the message.
type APIError struct {
	Code   server.Code
	Status int // HTTP status
	Msg    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: %s (status %d)", e.Msg, e.Status)
}

// ErrCode extracts the service layer's stable error code from a client
// error of either transport (*APIError or *StreamError), unwrapping as
// needed; errors without a code — transport failures, timeouts — return 0.
func ErrCode(err error) server.Code {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Code
	}
	var se *StreamError
	if errors.As(err, &se) {
		return se.Code
	}
	return 0
}
