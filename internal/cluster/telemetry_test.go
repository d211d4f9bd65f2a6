package cluster_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"venn/internal/client"
	"venn/internal/cluster"
	"venn/internal/obs"
	"venn/internal/server"
	"venn/internal/transport"
)

// telemetryViewsFile holds what /v1/metrics and /metrics showed for the
// set-ups of telemetryViews before both views were rendered from the one
// Metrics table: the JSON key paths and the exposition's HELP/TYPE lines and
// sample names with labels, values dropped, each sorted.
const telemetryViewsFile = "testdata/telemetry_views.txt"

// viewsConfig pins everything the two views' shapes can depend on: the clock,
// the seed and the sampling rate (every request carries a span, so the stage
// maps are full).
func viewsConfig() server.Config {
	at := time.Unix(1_700_000_000, 0)
	return server.Config{Seed: 1, Shards: 4, ObsSampleEvery: 1, Clock: func() time.Time { return at }}
}

// telemetryViews drives scripted traffic through four set-ups and returns
// each one's views, keyed "standalone", "stream", "federation-ingress" and
// "federation-owner"; every line is prefixed "json " or "prom ".
func telemetryViews(t *testing.T) map[string][]string {
	out := map[string][]string{}

	// A standalone manager behind the HTTP adapter.
	m := server.NewManager(viewsConfig())
	h := server.Handler(m)
	call(t, h, "/v1/jobs", server.JobSpec{Name: "views", Category: "General", DemandPerRound: 4, Rounds: 2}, nil)
	var batch server.CheckInBatchResponse
	fleet := viewsFleet("standalone", 16)
	call(t, h, "/v1/checkin/batch", server.CheckInBatchRequest{CheckIns: fleet}, &batch)
	call(t, h, "/v1/report/batch", server.ReportBatchRequest{Reports: reportsFor(fleet, batch.Results)}, nil)
	call(t, h, "/v1/checkin/batch", server.CheckInBatchRequest{CheckIns: []server.CheckIn{{DeviceID: "standalone-single", CPU: 0.9, Mem: 0.9}}}, nil)
	out["standalone"] = views(t, m)

	// A manager with a stream server, driven over a real connection.
	m, addr := viewsDaemon(t)
	c := client.NewStream(addr)
	streamTraffic(t, c, viewsFleet("stream", 16), true)
	c.Close()
	waitConnsClosed(t, m)
	out["stream"] = views(t, m)

	// A two-member federation with fixed member names, so the ring (and with
	// it which items cross the hop) does not depend on the listeners' ports.
	names := []string{"node-a", "node-b"}
	ms, addrs := make([]*server.Manager, 2), map[string]string{}
	for i, name := range names {
		ms[i], addrs[name] = viewsDaemon(t)
	}
	clus := make([]*cluster.Cluster, 2)
	for i, name := range names {
		clu, err := cluster.New(ms[i], cluster.Config{
			SelfID:         name,
			Peers:          names,
			HealthInterval: time.Hour, // no probes: both peers stay up
			Dial:           func(peer string) cluster.PeerClient { return client.NewStream(addrs[peer]) },
		})
		if err != nil {
			t.Fatal(err)
		}
		clus[i] = clu
		t.Cleanup(func() { _ = clu.Close() })
	}
	mixed := viewsFleet("fed", 32)
	owners := map[string]int{}
	for _, ci := range mixed {
		owners[clus[0].Ring().Owner(ci.DeviceID)]++
	}
	if len(owners) != 2 {
		t.Fatalf("federation batch spans %d owners, want 2", len(owners))
	}
	local := make([]server.CheckIn, 8)
	for i := range local {
		local[i] = server.CheckIn{DeviceID: deviceOwnedBy(t, clus[0].Ring(), "node-a", fmt.Sprintf("fed-local-%d", i)), CPU: 0.9, Mem: 0.9}
	}
	c = client.NewStream(addrs["node-a"])
	streamTraffic(t, c, mixed, true)
	streamTraffic(t, c, local, false) // one batch needing no hop: direct-routed
	c.Close()
	waitConnsClosed(t, ms[0])
	out["federation-ingress"] = views(t, ms[0])
	// Closing the ingress's cluster closes its peer connections, which lets
	// the owner's stream server finish every forwarded frame's bookkeeping.
	_ = clus[0].Close()
	waitConnsClosed(t, ms[1])
	out["federation-owner"] = views(t, ms[1])
	return out
}

// viewsDaemon starts a manager under viewsConfig with a stream server on a
// loopback listener, closed at the end of the test.
func viewsDaemon(t *testing.T) (*server.Manager, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m := server.NewManager(viewsConfig())
	ts := transport.NewServer(m, transport.Options{})
	go func() { _ = ts.Serve(ln) }()
	t.Cleanup(func() { _ = ts.Close() })
	return m, ln.Addr().String()
}

// streamTraffic registers a job (when job is set), checks fleet in as one
// batch, and reports every assignment back.
func streamTraffic(t *testing.T, c *client.StreamClient, fleet []server.CheckIn, job bool) {
	t.Helper()
	if job {
		if _, err := c.RegisterJob(server.JobSpec{Name: "views", Category: "General", DemandPerRound: 4, Rounds: 2}); err != nil {
			t.Fatal(err)
		}
	}
	results, err := c.CheckInBatch(fleet)
	if err != nil {
		t.Fatal(err)
	}
	if reports := reportsFor(fleet, results); len(reports) > 0 {
		if _, err := c.ReportBatch(reports); err != nil {
			t.Fatal(err)
		}
	}
}

func viewsFleet(tag string, n int) []server.CheckIn {
	fleet := make([]server.CheckIn, n)
	for i := range fleet {
		fleet[i] = server.CheckIn{DeviceID: fmt.Sprintf("%s-%04d", tag, i), CPU: 0.9, Mem: 0.9}
	}
	return fleet
}

func reportsFor(fleet []server.CheckIn, results []server.CheckInResult) []server.Report {
	var out []server.Report
	for i, res := range results {
		if res.Assigned {
			out = append(out, server.Report{DeviceID: fleet[i].DeviceID, JobID: res.JobID, OK: true, DurationSeconds: 30})
		}
	}
	return out
}

// waitConnsClosed waits until m's stream server has no open connection: its
// connection goroutines have then recorded every frame they served.
func waitConnsClosed(t *testing.T, m *server.Manager) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.MetricsSnapshot().StreamConns != 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream connections never closed")
		}
		time.Sleep(time.Millisecond)
	}
}

// call POSTs v as JSON to path on h and decodes the reply into out (if set).
func call(t *testing.T, h http.Handler, path string, v, out any) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code/100 != 2 {
		t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatal(err)
		}
	}
}

// views reads /v1/metrics and then /metrics through the HTTP adapter and
// returns their shapes: every JSON key path, and every exposition line with
// the sample value cut off.
func views(t *testing.T, m *server.Manager) []string {
	t.Helper()
	h := server.Handler(m)
	get := func(path string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Body.Bytes()
	}
	var doc map[string]any
	if err := json.Unmarshal(get("/v1/metrics"), &doc); err != nil {
		t.Fatal(err)
	}
	var lines []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		obj, ok := v.(map[string]any)
		if !ok {
			return
		}
		for k, sub := range obj {
			lines = append(lines, "json "+prefix+k)
			walk(prefix+k+".", sub)
		}
	}
	walk("", doc)
	sc := bufio.NewScanner(bytes.NewReader(get("/metrics")))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "#") {
			// Bucket bounds are obs.PromHist's fixed ladder: one line per
			// bucket series is enough.
			line = leLabel.ReplaceAllString(line[:strings.LastIndexByte(line, ' ')], "")
		}
		lines = append(lines, "prom "+line)
	}
	sort.Strings(lines)
	return slices.Compact(lines)
}

var leLabel = regexp.MustCompile(`,?le="[^"]*"`)

// readViews parses telemetryViewsFile: "== <set-up>" headers, each followed
// by that set-up's lines.
func readViews(t *testing.T) map[string][]string {
	t.Helper()
	buf, err := os.ReadFile(telemetryViewsFile)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	var cur string
	for _, line := range strings.Split(strings.TrimSpace(string(buf)), "\n") {
		if name, ok := strings.CutPrefix(line, "== "); ok {
			cur = name
			out[cur] = nil
			continue
		}
		out[cur] = append(out[cur], line)
	}
	return out
}

// newFederationFamilies are the exposition's only additions since the views
// were captured: two federation metrics /v1/metrics already carried.
var newFederationFamilies = []string{"venn_direct_routed_batches_total", "venn_topology_epoch"}

// promFamily returns the family a "prom " view line belongs to ("" for JSON
// lines).
func promFamily(line string) string {
	rest, ok := strings.CutPrefix(line, "prom ")
	if !ok {
		return ""
	}
	if c, ok := strings.CutPrefix(rest, "# HELP "); ok {
		rest = c
	} else if c, ok := strings.CutPrefix(rest, "# TYPE "); ok {
		rest = c
	}
	if i := strings.IndexAny(rest, " {"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// TestTelemetryViewsUnchanged pins the JSON key set and the exposition's
// families, help texts, types and labelled sample names of four set-ups to
// the captured ones. The federation set-ups must carry the two new families
// and differ in nothing else.
func TestTelemetryViewsUnchanged(t *testing.T) {
	want := readViews(t)
	got := telemetryViews(t)
	for _, setup := range []string{"standalone", "stream", "federation-ingress", "federation-owner"} {
		lines := got[setup]
		if strings.HasPrefix(setup, "federation") {
			var added []string
			lines = slices.DeleteFunc(slices.Clone(lines), func(l string) bool {
				if slices.Contains(newFederationFamilies, promFamily(l)) {
					added = append(added, l)
					return true
				}
				return false
			})
			// Each new family: HELP, TYPE and one sample.
			if len(added) != 3*len(newFederationFamilies) {
				t.Errorf("%s: new federation families rendered as %q", setup, added)
			}
		}
		if !slices.Equal(lines, want[setup]) {
			t.Errorf("%s: views differ from %s\n%s", setup, telemetryViewsFile, diffLines(want[setup], lines))
		}
	}
}

// diffLines lists the lines only one side has.
func diffLines(want, got []string) string {
	var b strings.Builder
	for _, l := range want {
		if !slices.Contains(got, l) {
			fmt.Fprintf(&b, "  - %s\n", l)
		}
	}
	for _, l := range got {
		if !slices.Contains(want, l) {
			fmt.Fprintf(&b, "  + %s\n", l)
		}
	}
	return b.String()
}

// TestFederatedExposition renders /metrics of an attached cluster: it must
// pass the exposition grammar and carry the federation families, and after
// Close — which detaches routing, topology and telemetry together — none of
// them.
func TestFederatedExposition(t *testing.T) {
	m := server.NewManager(server.Config{})
	fake := newFakePeer()
	close(fake.block)
	clu, err := cluster.New(m, cluster.Config{
		SelfID:         "self",
		Peers:          []string{"self", "peer-1"},
		HealthInterval: time.Hour,
		Dial:           func(string) cluster.PeerClient { return fake },
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := deviceOwnedBy(t, clu.Ring(), "peer-1", "expo")
	if res := checkInOne(clu, server.CheckIn{DeviceID: dev, CPU: 0.5, Mem: 0.5}); res.Error != "" {
		t.Fatal(res.Error)
	}
	render := func() string {
		var b strings.Builder
		server.WritePrometheus(&b, m)
		if _, _, err := obs.ValidateExposition(b.String()); err != nil {
			t.Fatalf("exposition invalid: %v", err)
		}
		return b.String()
	}
	federation := append([]string{
		`venn_cluster_peers{state="up"} 1`,
		"venn_cluster_forwards_in_total ",
		"venn_cluster_forwards_out_total 1",
		"venn_cluster_forward_errors_total ",
		"venn_cluster_local_fallbacks_total ",
		"venn_forward_bytes_in_total ",
		"venn_forward_bytes_out_total ",
	}, newFederationFamilies...)
	text := render()
	for _, fam := range federation {
		if !strings.Contains(text, "\n"+fam) {
			t.Errorf("attached: exposition lacks %q", fam)
		}
	}
	if !strings.Contains(text, "\nvenn_topology_epoch 1\n") {
		t.Error("attached: venn_topology_epoch is not the first epoch")
	}
	_ = clu.Close()
	text = render()
	for _, fam := range federation {
		if strings.Contains(text, fam) {
			t.Errorf("after Close: exposition still carries %q", fam)
		}
	}
}
