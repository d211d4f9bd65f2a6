package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"venn/internal/client"
	"venn/internal/cluster"
	"venn/internal/core"
	"venn/internal/device"
	"venn/internal/hashring"
	"venn/internal/job"
	"venn/internal/server"
	"venn/internal/sim"
	"venn/internal/simtime"
	"venn/internal/stats"
	"venn/internal/transport"
	"venn/internal/tsdb"
)

// Span names of the traced walk: one per layer function the walk calls.
const (
	spanFrame       = "frame"
	spanEncodeReq   = "server.bincodec.encode_req"
	spanDecodeReq   = "server.bincodec.decode_req"
	spanEncodeResp  = "server.bincodec.encode_resp"
	spanDecodeResp  = "server.bincodec.decode_resp"
	spanJSONEncReq  = "server.codec.json_encode_req"
	spanJSONDecReq  = "server.codec.json_decode_req"
	spanJSONEncResp = "server.codec.json_encode_resp"
	spanJSONDecResp = "server.codec.json_decode_resp"
	spanWriteFrame  = "transport.write_frame"
	spanReadFrame   = "transport.read_frame"
	spanCheckIn     = "server.service.checkin_batch"
	spanReport      = "server.service.report_batch"
	spanRegister    = "server.manager.register_job"
	spanHandler     = "server.http.handler"
	spanAssign      = "core.assign"
	spanRebuild     = "core.plan_rebuild"
	spanProbe       = "core.snapshot_probe"
	spanOwner       = "hashring.owner"
	spanClusterRaw  = "cluster.checkin_batch_raw"
)

// walkResult is the traced walk's outcome.
type walkResult struct {
	spans          []span
	perFrame       map[string][]float64 // span name -> self ns per frame it occurs in
	coldPerDevice  float64              // ns per device of the first fleet pass through the service
	spanOverheadNs float64              // one empty span
}

// walkEnv is the state the walk drives by hand. Three managers keep the
// paths apart: path serves the workload's own stream path (and is the only
// one that runs the demand script), side serves the HTTP handler and the
// cluster call, and on the federated workload hop is the peer daemon the
// cluster forwards to over loopback TCP.
type walkEnv struct {
	path    *server.Manager
	svc     *server.Service
	side    *server.Manager
	handler http.Handler
	clu     *cluster.Cluster
	ring    *hashring.Ring
	stop    []func()

	venn  *core.Venn
	env   *sim.Env
	devs  []*device.Device // the fleet in frame order, for the core calls
	cells []device.CellID
	jobID job.ID
}

func (e *walkEnv) close() {
	for i := len(e.stop) - 1; i >= 0; i-- {
		e.stop[i]()
	}
}

func newWalkEnv(w workload, in *inputs) (*walkEnv, error) {
	cfg := managerConfig("", nil)
	e := &walkEnv{path: server.NewManager(cfg), side: server.NewManager(cfg)}
	e.svc = server.NewService(e.path, server.TransportStream)
	e.handler = server.NewHandler(e.side, server.HandlerConfig{})
	for _, spec := range in.setupJobs {
		if _, err := e.side.RegisterJob(spec); err != nil {
			return nil, err
		}
	}
	members := []string{"bench-node-0"}
	ccfg := cluster.Config{SelfID: members[0]}
	if w.federated {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hop := server.NewManager(cfg)
		ts := transport.NewServer(hop, transport.Options{})
		go func() { _ = ts.Serve(ln) }()
		e.stop = append(e.stop, func() { _ = ts.Close() })
		members = append(members, "bench-node-1")
		ccfg.Peers = members
		ccfg.Dial = func(string) cluster.PeerClient {
			return client.NewStream(ln.Addr().String(), client.WithTimeout(clientTimeout))
		}
	}
	clu, err := cluster.New(e.side, ccfg)
	if err != nil {
		e.close()
		return nil, err
	}
	e.stop = append(e.stop, func() { _ = clu.Close() })
	// The cluster is called directly; detached as a router, it leaves the
	// HTTP handler on side a plain single-daemon handler.
	e.side.ClearRouter(clu)
	e.clu = clu
	e.ring = hashring.New(members, 0)

	grid := device.NewGrid(device.Categories())
	e.env = &sim.Env{
		Grid:          grid,
		DB:            tsdb.New(grid.NumCells(), 24*simtime.Hour, simtime.Hour),
		CellPriorRate: make([]float64, grid.NumCells()),
		Jobs:          make(map[job.ID]*job.Job),
		RNG:           stats.NewRNG(daemonSeed),
	}
	e.venn = core.New(core.DefaultOptions())
	e.venn.Bind(e.env)
	e.devs = make([]*device.Device, len(in.fleet))
	e.cells = make([]device.CellID, len(in.fleet))
	for i, ci := range in.fleet {
		e.devs[i] = device.New(device.ID(i), ci.CPU, ci.Mem)
		e.cells[i] = grid.CellOfDevice(e.devs[i])
	}
	return e, nil
}

// runWalk replays the workload's first frames synchronously through each
// layer's public functions, one span per call. Every layer is called on
// every workload, so all walk metrics exist everywhere; which of them lie on
// the workload's serving path is the cost model's business
// (predictedMicrosPerCheckIn).
func runWalk(w workload, in *inputs, frames int) (*walkResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e, err := newWalkEnv(w, in)
	if err != nil {
		return nil, fmt.Errorf("walk: %w", err)
	}
	defer e.close()

	res := &walkResult{spanOverheadNs: spanOverhead()}
	rec := newSpanRecorder(frames * 24)
	timed := rec.timed
	for i, spec := range in.setupJobs {
		var err error
		timed(spanRegister, -1-i, func() { _, err = e.path.RegisterJob(spec) })
		if err != nil {
			return nil, fmt.Errorf("walk: %w", err)
		}
	}

	ring := newDeviceRing(in.fleet)
	var wire bytes.Buffer
	br := bufio.NewReader(&wire)
	var encBuf, respBuf []byte
	feedSeq := 0
	for f := 0; f < frames; f++ {
		cis := ring.frame(f)
		req := server.CheckInBatchRequest{CheckIns: cis}
		root := rec.begin(spanFrame, f)

		// The stream path: client encode, frame out, frame in, server
		// decode, service, server encode, frame out, frame in, client decode.
		timed(spanEncodeReq, f, func() { encBuf, err = req.AppendBinary(encBuf[:0]) })
		if err != nil {
			return nil, err
		}
		var fr transport.Frame
		timed(spanWriteFrame, f, func() {
			err = transport.WriteFrame(&wire, transport.Version2, transport.OpCheckInBatch, uint32(f+1), encBuf)
		})
		if err == nil {
			timed(spanReadFrame, f, func() {
				fr, err = transport.ReadFramePooled(br, len(encBuf), transport.MaxVersion)
			})
		}
		if err != nil {
			return nil, fmt.Errorf("walk: frame: %w", err)
		}
		var dec server.CheckInBatchRequest
		timed(spanDecodeReq, f, func() { err = dec.UnmarshalBinary(fr.Payload) })
		if err != nil {
			return nil, fmt.Errorf("walk: decode: %w", err)
		}
		if w.demand && f%demandEvery == 0 {
			spec := server.JobSpec{Name: fmt.Sprintf("feed-%d", feedSeq), Category: "General", DemandPerRound: demandOf(feedSeq), Rounds: 1}
			feedSeq++
			timed(spanRegister, f, func() { _, err = e.path.RegisterJob(spec) })
			if err != nil {
				return nil, fmt.Errorf("walk: %w", err)
			}
		}
		var resp server.CheckInBatchResponse
		timed(spanCheckIn, f, func() { resp, err = e.svc.CheckInBatchLocal(dec, nil) })
		if err != nil {
			return nil, fmt.Errorf("walk: check-in: %w", err)
		}
		transport.PutBuf(fr.Payload)
		timed(spanEncodeResp, f, func() { respBuf, err = resp.AppendBinary(respBuf[:0]) })
		if err != nil {
			return nil, err
		}
		timed(spanWriteFrame, f, func() {
			err = transport.WriteFrame(&wire, transport.Version2, transport.OpCheckInBatch|transport.RespFlag, uint32(f+1), respBuf)
		})
		if err == nil {
			timed(spanReadFrame, f, func() {
				fr, err = transport.ReadFramePooled(br, len(respBuf), transport.MaxVersion)
			})
		}
		if err != nil {
			return nil, fmt.Errorf("walk: frame: %w", err)
		}
		var back server.CheckInBatchResponse
		timed(spanDecodeResp, f, func() { err = back.UnmarshalBinary(fr.Payload) })
		transport.PutBuf(fr.Payload)
		if err != nil || len(back.Results) != len(cis) {
			return nil, fmt.Errorf("walk: response decode: %v (%d results)", err, len(back.Results))
		}
		if reports := reportsOf(cis, back.Results); len(reports) > 0 {
			timed(spanReport, f, func() {
				_, err = e.svc.ReportBatchLocal(server.ReportBatchRequest{Reports: reports}, nil)
			})
			if err != nil {
				return nil, fmt.Errorf("walk: report: %w", err)
			}
		}

		// The HTTP and the federation calls share the side manager's copy of
		// the frame's devices. The one on the workload's serving path goes
		// first, so that it finds them as cold in the cache as the real path
		// does.
		sideCalls := []func(*spanRecorder, int, []server.CheckIn, []byte) error{e.httpFrame, e.clusterFrame}
		if w.federated {
			sideCalls[0], sideCalls[1] = sideCalls[1], sideCalls[0]
		}
		for _, call := range sideCalls {
			if err := call(rec, f, cis, encBuf); err != nil {
				return nil, err
			}
		}

		e.coreFrame(rec, f, (f*batch)%ring.n)
		rec.end(root)
	}

	res.spans = rec.spans
	res.perFrame = perFrameSelf(rec.spans)
	coldFrames := (ring.n + batch - 1) / batch
	var cold []float64
	for _, s := range rec.spans {
		if s.name == spanCheckIn && int(s.frame) < coldFrames {
			cold = append(cold, float64(s.end-s.start)/batch)
		}
	}
	res.coldPerDevice = stats.Median(cold)
	return res, nil
}

// httpFrame walks the HTTP/JSON path of one frame on the side manager:
// client encode, the handler on a recorder, client decode, and the server's
// two codec calls on their own.
func (e *walkEnv) httpFrame(rec *spanRecorder, f int, cis []server.CheckIn, _ []byte) error {
	var err error
	timed := func(name string, fn func()) { rec.timed(name, f, fn) }
	req := server.CheckInBatchRequest{CheckIns: cis}
	var body []byte
	timed(spanJSONEncReq, func() { body, err = req.MarshalJSON() })
	if err != nil {
		return err
	}
	hreq := httptest.NewRequest(http.MethodPost, "/v1/checkin/batch", bytes.NewReader(body))
	hrec := httptest.NewRecorder()
	timed(spanHandler, func() { e.handler.ServeHTTP(hrec, hreq) })
	if hrec.Code != http.StatusOK {
		return fmt.Errorf("walk: handler status %d", hrec.Code)
	}
	var jresp server.CheckInBatchResponse
	timed(spanJSONDecResp, func() { err = jresp.UnmarshalJSON(hrec.Body.Bytes()) })
	if err != nil {
		return fmt.Errorf("walk: json response decode: %w", err)
	}
	var jreq server.CheckInBatchRequest
	timed(spanJSONDecReq, func() { err = jreq.UnmarshalJSON(body) })
	if err != nil {
		return fmt.Errorf("walk: json decode: %w", err)
	}
	timed(spanJSONEncResp, func() { _, err = jresp.MarshalJSON() })
	if err != nil {
		return err
	}
	e.side.ReportBatch(reportsOf(cis, jresp.Results))
	return nil
}

// clusterFrame walks the federation layer for one frame on the side manager:
// the ring lookups alone, then the cluster's raw batch entry point (peer hop
// included on the federated workload). payload is the frame's v2 encoding.
func (e *walkEnv) clusterFrame(rec *spanRecorder, f int, cis []server.CheckIn, payload []byte) error {
	rec.timed(spanOwner, f, func() {
		for i := range cis {
			_ = e.ring.Owner(cis[i].DeviceID)
		}
	})
	var raw server.CheckInBatchRequest
	bounds, err := raw.UnmarshalBinaryBounds(payload)
	if err != nil {
		return fmt.Errorf("walk: bounds: %w", err)
	}
	var results []server.CheckInResult
	rec.timed(spanClusterRaw, f, func() {
		results, _ = e.clu.CheckInBatchRaw(raw.CheckIns, server.RawItems{Data: payload, Bounds: bounds}, nil)
	})
	for i := range results {
		if results[i].Error != "" {
			return fmt.Errorf("walk: cluster check-in: %s", results[i].Error)
		}
	}
	e.clu.ReportBatch(reportsOf(cis, results), nil)
	return nil
}

// reportsOf builds the reports of the devices a check-in reply assigned.
func reportsOf(cis []server.CheckIn, results []server.CheckInResult) []server.Report {
	var out []server.Report
	for i := range results {
		if results[i].Assigned {
			out = append(out, server.Report{DeviceID: cis[i].DeviceID, JobID: results[i].JobID, OK: true, DurationSeconds: 30})
		}
	}
	return out
}

// coreFrame drives the scheduler core by hand for one frame, under the
// demand script on every workload (the core has nothing to do on surplus
// traffic): a job arrival every demandEvery frames, a snapshot probe of
// every device, Assign for the devices with a candidate, and a plan rebuild
// after each structural change (a group gaining its first or losing its
// last open request).
func (e *walkEnv) coreFrame(rec *spanRecorder, f, off int) {
	now := simtime.Time(f)
	rebuild := func() {
		id := rec.begin(spanRebuild, f)
		e.venn.RefreshPlan(now)
		rec.end(id)
	}
	if f%demandEvery == 0 {
		j := job.New(e.jobID, device.General, demandOf(int(e.jobID)), 1, now)
		e.jobID++
		e.env.Jobs[j.ID] = j
		j.Start(now)
		e.venn.OnJobArrival(j, now)
		e.venn.OnRequest(j, now)
		rebuild()
	}
	var candidates [batch]int
	n := 0
	id := rec.begin(spanProbe, f)
	if e.venn.PlanFresh() {
		snap := e.venn.PlanSnapshot()
		for i := 0; i < batch; i++ {
			k := (off + i) % len(e.devs)
			if snap.HasCandidate(e.devs[k], e.cells[k], now) {
				candidates[n] = k
				n++
			}
		}
	}
	rec.end(id)
	if n == 0 {
		return
	}
	id = rec.begin(spanAssign, f)
	for _, k := range candidates[:n] {
		j := e.venn.Assign(e.devs[k], now)
		if j == nil || !j.AddAssignment(now) {
			continue
		}
		rec.end(id)
		// Fully assigned: collect the responses and retire the job, as the
		// manager would on the devices' reports.
		e.venn.OnRequestFulfilled(j, now)
		for !j.CanComplete() {
			j.AddResponse(now)
		}
		j.CompleteRound(now)
		e.venn.OnJobDone(j, now)
		delete(e.env.Jobs, j.ID)
		rebuild()
		id = rec.begin(spanAssign, f)
	}
	rec.end(id)
}

// spanOverhead is the mean cost of recording one empty span.
func spanOverhead() float64 {
	const n = 100_000
	rec := newSpanRecorder(n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		rec.end(rec.begin(spanFrame, i))
	}
	return float64(time.Since(t0)) / n
}
