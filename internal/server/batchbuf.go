package server

import (
	"bytes"
	"math"
	"strconv"
	"sync"
	"unsafe"
)

// BatchBuf is the reusable storage of one batch request: the decoded items,
// their byte boundaries, the results, the combiner's item slices, and the
// scratch of a federation router that splits the batch by owner. A stream
// connection owns one and serves every frame out of it, local or forwarded,
// so a warm batch allocates nothing; the HTTP batch routes serve out of a
// pooled one (getBatchBuf), which also holds their request body and reply,
// and the allocating entry points run the same code over a fresh zero
// BatchBuf. Everything in it, and every result slice a …Buf call returns, is
// valid only until the owner's next use of it. After a Decode* the device
// IDs are views of the payload, which must stay untouched until the reply is
// encoded; after an HTTP route's decode they are views of its body, which
// the route keeps until the reply is written. The manager clones what it
// keeps.
type BatchBuf struct {
	CheckIns []CheckIn
	Reports  []Report
	Bounds   []uint32 // of the batch decoded last; see RawItems

	// The router's flat owner plan (see Router): Owner[i] is the group
	// serving item i, Order the item indices counting-sorted by group, and
	// group g is Order[Start[g]:Start[g+1]].
	Owner, Order, Start []int32
	sub                 *BatchBuf // see Sub

	checkInResults []CheckInResult
	reportResults  []ReportResult
	assigns        []assignItem
	reports        []reportItem

	body     bytes.Buffer // an HTTP batch route's request body
	reply    []byte       // and its encoded reply
	replyLen string       // a Content-Length value; see replyLength
}

// batchBufs holds the BatchBufs of the callers that bring none of their own.
var batchBufs = sync.Pool{New: func() any { return new(BatchBuf) }}

func getBatchBuf() *BatchBuf { return batchBufs.Get().(*BatchBuf) }

// maxPooledBody is the largest body or reply buffer a pooled BatchBuf keeps,
// the bound transport.PutBuf sets on frame buffers: one outsized batch must
// not pin its footprint forever.
const maxPooledBody = 1 << 20

// putBatchBuf releases b and returns it to the pool; nothing b held, results
// included, may be read afterwards.
func putBatchBuf(b *BatchBuf) {
	b.Release()
	if b.body.Cap() > maxPooledBody {
		b.body = bytes.Buffer{}
	}
	if cap(b.reply) > maxPooledBody {
		b.reply = nil
	}
	batchBufs.Put(b)
}

// grow returns s with length n and every element zero, reusing its backing
// array when that is large enough.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// fill sets every element of s to v.
func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// CheckInSlots returns b's check-in result storage as n zeroed slots: what
// Manager.CheckInBatchBuf answers in, and what a router merges a split batch
// into.
func (b *BatchBuf) CheckInSlots(n int) []CheckInResult {
	b.checkInResults = grow(b.checkInResults, n)
	return b.checkInResults
}

// ReportSlots is CheckInSlots for report results.
func (b *BatchBuf) ReportSlots(n int) []ReportResult {
	b.reportResults = grow(b.reportResults, n)
	return b.reportResults
}

// Sub returns the buffer a router gathers the locally served part of a split
// batch into, and serves it from: b's slots hold the merged results meanwhile.
func (b *BatchBuf) Sub() *BatchBuf {
	if b.sub == nil {
		b.sub = new(BatchBuf)
	}
	return b.sub
}

// DecodeCheckIns decodes a v2 check-in batch payload into b.CheckIns and
// b.Bounds.
func (b *BatchBuf) DecodeCheckIns(payload []byte) (err error) {
	d := bdec{b: payload, shared: unsafe.String(unsafe.SliceData(payload), len(payload))}
	b.CheckIns, b.Bounds, err = decodeCheckIns(&d, b.CheckIns, b.Bounds, true)
	return err
}

// DecodeReports decodes a v2 report batch payload into b.Reports and b.Bounds.
func (b *BatchBuf) DecodeReports(payload []byte) (err error) {
	d := bdec{b: payload, shared: unsafe.String(unsafe.SliceData(payload), len(payload))}
	b.Reports, b.Bounds, err = decodeReports(&d, b.Reports, b.Bounds, true)
	return err
}

// replyLength returns len(b.reply) in decimal for the Content-Length
// header. It keeps the last string while replies keep their length, as a run
// of surplus batches does, so the header costs no allocation.
func (b *BatchBuf) replyLength() string {
	if n, err := strconv.Atoi(b.replyLen); err != nil || n != len(b.reply) {
		b.replyLen = strconv.Itoa(len(b.reply))
	}
	return b.replyLen
}

// decodeCheckInsJSON decodes an HTTP check-in batch body into b.CheckIns,
// the device IDs as views of body.
func (b *BatchBuf) decodeCheckInsJSON(body []byte) (err error) {
	s := jscan{b: body, views: true}
	b.CheckIns, err = scanCheckIns(&s, b.CheckIns[:0])
	return err
}

// decodeReportsJSON decodes an HTTP report batch body into b.Reports, the
// device IDs as views of body.
func (b *BatchBuf) decodeReportsJSON(body []byte) (err error) {
	s := jscan{b: body, views: true}
	b.Reports, err = scanReports(&s, b.Reports[:0])
	return err
}

// Release ends a frame's use of b, once its reply is encoded. It does nothing
// in a normal build; the poolcheck build overwrites what the frame left in b,
// so that a test catches whatever still reads it.
func (b *BatchBuf) Release() {
	if !Poolcheck {
		return
	}
	const gone = "\xa5poolcheck: read after release\xa5"
	bad := math.Float64frombits(0xA5A5A5A5A5A5A5A5)
	fill(b.CheckIns, CheckIn{DeviceID: gone, CPU: bad, Mem: bad})
	fill(b.Reports, Report{DeviceID: gone, JobID: -0x5A5A5A5B, DurationSeconds: bad})
	fill(b.Bounds, 0xA5A5A5A5)
	fill(b.Owner, -0x5A5A5A5B)
	fill(b.Order, -0x5A5A5A5B)
	fill(b.Start, -0x5A5A5A5B)
	if b.sub != nil {
		b.sub.Release()
	}
	fill(b.checkInResults, CheckInResult{Error: gone})
	fill(b.reportResults, ReportResult{Error: gone})
	clear(b.assigns)
	clear(b.reports)
	fill(b.body.Bytes(), 0xA5)
	fill(b.reply, 0xA5)
}
