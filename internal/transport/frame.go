// Package transport serves the scheduler's Service layer over a persistent
// binary streaming protocol: length-prefixed frames on a raw TCP
// connection. Compared to the HTTP adapter it removes per-request framing,
// header parsing, and connection churn — an agent (or a peer daemon) holds
// one connection open and pipelines requests over it, correlating replies
// by request ID.
//
// Frame layout (all integers big-endian):
//
//	offset size  field
//	0      2     magic 0x56 0x4E ("VN")
//	2      1     protocol version (always 2)
//	3      1     opcode
//	4      4     request ID (echoed verbatim in the response)
//	8      4     payload length N
//	12     N     payload
//
// There is one dialect. A frame with any other version byte is a framing
// violation, handled like bad magic: the connection is closed without a
// reply. A payload's encoding is a function of its opcode alone: the two
// serving opcodes (the check-in and report batches), OpError and OpTopology
// carry the fixed binary layouts; OpRegisterJob, OpJobs,
// OpJobStatus and OpMetrics carry JSON; OpPing is empty. See README
// "Wire protocol" for the spec.
//
// A response reuses the request's opcode with RespFlag set, or OpError with
// an ErrorPayload body. Request IDs are chosen by the client and echoed; the
// server answers a connection's frames one at a time, in the order they
// arrived, and writes the replies to a pipelined burst in one write.
package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Protocol constants.
const (
	Magic0 = 0x56 // 'V'
	Magic1 = 0x4E // 'N'
	// Version2 is the one protocol version: the version byte of every frame.
	// MaxVersion is its other name, from when a connection negotiated one.
	Version2   byte = 2
	MaxVersion byte = Version2
	// HeaderSize is the fixed frame-header length in bytes.
	HeaderSize = 12
)

// Opcodes. Response opcode = request opcode | RespFlag on success; OpError
// carries an ErrorPayload on failure.
const (
	// 0x01 and 0x03 are retired (they were the single check-in and report:
	// one is a batch of one now) and reserved: a server answers them like
	// any unknown opcode.
	OpCheckInBatch byte = 0x02
	OpReportBatch  byte = 0x04
	OpRegisterJob  byte = 0x05
	OpJobs         byte = 0x06
	OpJobStatus    byte = 0x07
	// 0x08 is retired (it was the stats snapshot, now part of OpMetrics)
	// and reserved: a server answers it like any unknown opcode.
	OpMetrics byte = 0x09
	OpPing    byte = 0x0A
	// 0x0B is retired (it was the version-negotiation opcode) and reserved:
	// a server answers it like any unknown opcode.

	// OpTopology requests the federation topology: the ring's member
	// addresses, vnode count, and an epoch that advances whenever the live
	// membership changes. The request payload is empty; the response is a
	// TopologyPayload in the fixed binary layout. The server additionally
	// *pushes* an unsolicited OpTopology|RespFlag frame
	// with request ID 0 to every connection that has fetched the topology
	// whenever the epoch advances, so ring-aware clients re-partition
	// without polling. A daemon with no federation layer attached answers
	// OpError with CodeUnavailable.
	OpTopology byte = 0x0C

	// HopFlag marks a request frame as already forwarded once by a peer
	// daemon (federation hop guard). A server must answer a hop-flagged
	// frame itself — served locally or rejected — and never re-forward it,
	// so two daemons with disagreeing (stale) rings cannot ping-pong a
	// request between each other. Only the two serving opcodes (the check-in
	// and report batches) may carry it. Responses echo the flag.
	HopFlag byte = 0x40
	// TraceFlag marks a request frame as carrying a trace context: the
	// payload begins with a TraceContextSize-byte prefix (see PrependTrace /
	// PeelTrace) that the server strips before decoding. Only the two
	// serving opcodes may carry it (anything else is rejected as invalid),
	// and it never appears on responses, which carry their timing in the
	// origin's span instead of on the wire. The federation
	// layer sets it on hop frames whose origin request was sampled, which is
	// what lets the owning daemon attribute its time to the same trace ID the
	// origin records for the hop stage.
	TraceFlag byte = 0x20
	// RespFlag marks a frame as a response to the same opcode.
	RespFlag byte = 0x80
	// OpError is the error-response opcode; its payload is an ErrorPayload
	// in its binary layout.
	OpError byte = 0xFF
)

// ErrorPayload is the body of an OpError response frame. Code carries the
// service layer's error code (server.Code) so clients can classify without
// string matching. On the wire it is
// `uvarint code | uvarint len | len bytes of message`.
type ErrorPayload struct {
	Code  int    `json:"code"`
	Error string `json:"error"`
}

// MarshalBinary encodes the wire form of the error payload.
func (e *ErrorPayload) MarshalBinary() ([]byte, error) {
	b := binary.AppendUvarint(nil, uint64(uint(e.Code)))
	b = binary.AppendUvarint(b, uint64(len(e.Error)))
	return append(b, e.Error...), nil
}

// UnmarshalBinary decodes the wire form of the error payload.
func (e *ErrorPayload) UnmarshalBinary(data []byte) error {
	code, n := binary.Uvarint(data)
	if n <= 0 {
		return &ErrProtocol{msg: "error payload: bad code"}
	}
	data = data[n:]
	slen, n := binary.Uvarint(data)
	if n <= 0 || slen > uint64(len(data[n:])) {
		return &ErrProtocol{msg: "error payload: bad message length"}
	}
	data = data[n:]
	if uint64(len(data)) != slen {
		return &ErrProtocol{msg: "error payload: trailing bytes"}
	}
	e.Code = int(code)
	e.Error = string(data)
	return nil
}

// TopologyPayload is the OpTopology response body: everything a client
// needs to rebuild the federation's ownership ring locally (hashring.New
// over Members with VNodes points each) plus the epoch it was published at.
//
// Binary layout:
//
//	uvarint epoch | uvarint vnodes | uvarint count | count × (uvarint len | bytes)
//
// Members lists the *live* members (self plus peers currently passing
// health probes), sorted; a member marked down by the health loop drops off
// the payload and the epoch advances, so ring-aware clients stop routing
// batches at a daemon its own peers consider dead.
type TopologyPayload struct {
	Epoch   uint64   `json:"epoch"`
	VNodes  int      `json:"vnodes"`
	Members []string `json:"members"`
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (t *TopologyPayload) MarshalBinary() ([]byte, error) {
	n := 12
	for _, m := range t.Members {
		n += 5 + len(m)
	}
	b := binary.AppendUvarint(make([]byte, 0, n), t.Epoch)
	b = binary.AppendUvarint(b, uint64(uint(t.VNodes)))
	b = binary.AppendUvarint(b, uint64(len(t.Members)))
	for _, m := range t.Members {
		b = binary.AppendUvarint(b, uint64(len(m)))
		b = append(b, m...)
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Like every binary
// decoder it rejects lying counts and trailing bytes, and an accepted
// payload re-encodes byte-identically (pinned by FuzzTopologyRoundTrip).
func (t *TopologyPayload) UnmarshalBinary(data []byte) error {
	*t = TopologyPayload{}
	uv := func(what string) (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, &ErrProtocol{msg: "topology payload: bad " + what}
		}
		data = data[n:]
		return v, nil
	}
	epoch, err := uv("epoch")
	if err != nil {
		return err
	}
	vnodes, err := uv("vnodes")
	if err != nil {
		return err
	}
	count, err := uv("member count")
	if err != nil {
		return err
	}
	// Every member costs at least one length byte, so a lying count cannot
	// balloon the allocation past the payload it arrived in.
	if count > uint64(len(data)) {
		return &ErrProtocol{msg: "topology payload: member count exceeds payload"}
	}
	members := make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		slen, err := uv("member length")
		if err != nil {
			return err
		}
		if slen > uint64(len(data)) {
			return &ErrProtocol{msg: "topology payload: member length exceeds payload"}
		}
		members = append(members, string(data[:slen]))
		data = data[slen:]
	}
	if len(data) != 0 {
		return &ErrProtocol{msg: "topology payload: trailing bytes"}
	}
	t.Epoch = epoch
	t.VNodes = int(vnodes)
	if len(members) > 0 {
		t.Members = members
	}
	return nil
}

// TraceContextSize is the length of the trace prefix a TraceFlag frame's
// payload starts with: a big-endian uint64 trace ID followed by one flags
// byte (bit 0 = sampled).
const TraceContextSize = 9

// traceSampledBit is the sampled flag in a trace context's flags byte.
const traceSampledBit = 0x01

// PrependTrace shifts payload right by TraceContextSize bytes and writes the
// trace context at the front, returning the grown slice. The payload is
// typically a pooled buffer mid-build; the copy is the price of keeping the
// encoders trace-unaware.
func PrependTrace(payload []byte, traceID uint64, sampled bool) []byte {
	payload = append(payload, make([]byte, TraceContextSize)...)
	copy(payload[TraceContextSize:], payload[:len(payload)-TraceContextSize])
	binary.BigEndian.PutUint64(payload[:8], traceID)
	payload[8] = 0
	if sampled {
		payload[8] = traceSampledBit
	}
	return payload
}

// PeelTrace splits a TraceFlag frame's payload into its trace context and
// the real payload that follows. The returned rest aliases data — callers
// recycling a pooled payload must recycle the original slice, not rest.
func PeelTrace(data []byte) (traceID uint64, sampled bool, rest []byte, err error) {
	if len(data) < TraceContextSize {
		return 0, false, nil, &ErrProtocol{msg: "trace context shorter than its fixed size"}
	}
	traceID = binary.BigEndian.Uint64(data[:8])
	return traceID, data[8]&traceSampledBit != 0, data[TraceContextSize:], nil
}

// JobIDRequest is the OpJobStatus request body.
type JobIDRequest struct {
	ID int `json:"id"`
}

// Frame is one decoded frame.
type Frame struct {
	Ver     byte
	Op      byte
	ID      uint32
	Payload []byte
}

// ErrProtocol reports a framing violation (bad magic or version); the
// connection cannot be trusted past it and must be closed.
type ErrProtocol struct{ msg string }

func (e *ErrProtocol) Error() string { return "transport: " + e.msg }

// PutHeader encodes a frame header into hdr, which must be at least
// HeaderSize bytes.
func PutHeader(hdr []byte, ver, op byte, id uint32, payloadLen int) {
	hdr[0], hdr[1], hdr[2], hdr[3] = Magic0, Magic1, ver, op
	binary.BigEndian.PutUint32(hdr[4:8], id)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(payloadLen))
}

// appendFrame appends one whole frame to b.
func appendFrame(b []byte, ver, op byte, id uint32, payload []byte) []byte {
	b = append(b, make([]byte, HeaderSize)...)
	PutHeader(b[len(b)-HeaderSize:], ver, op, id, len(payload))
	return append(b, payload...)
}

// WriteFrame writes one frame to w (typically a *bufio.Writer; the caller
// owns flushing). A *bufio.Writer with room gets the header built in its own
// buffer; through the io.Writer interface a local header array escapes, one
// heap object per frame. ver has one legal value, Version2; like
// ReadFramePooled's last parameter it stays because the benchmark compiles
// against it.
func WriteFrame(w io.Writer, ver, op byte, id uint32, payload []byte) error {
	var hdr []byte
	if bw, ok := w.(*bufio.Writer); ok && bw.Available() >= HeaderSize {
		hdr = bw.AvailableBuffer()[:HeaderSize]
	} else {
		hdr = make([]byte, HeaderSize)
	}
	PutHeader(hdr, ver, op, id, len(payload))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readHeader reads and validates one frame header, returning the frame
// without its payload and the payload's length. A frame whose version byte
// is not Version2 is rejected the way bad magic is. Payloads above maxPayload
// are rejected as a protocol violation — a correct peer never sends them, and
// honoring the prefix would let a malformed length balloon memory.
func readHeader(br *bufio.Reader, maxPayload int) (Frame, int, error) {
	hdr, err := br.Peek(HeaderSize)
	if err != nil {
		return Frame{}, 0, err
	}
	if hdr[0] != Magic0 || hdr[1] != Magic1 {
		return Frame{}, 0, &ErrProtocol{msg: "bad magic"}
	}
	if hdr[2] != Version2 {
		return Frame{}, 0, &ErrProtocol{msg: fmt.Sprintf("unsupported version %d", hdr[2])}
	}
	n := binary.BigEndian.Uint32(hdr[8:12])
	if int64(n) > int64(maxPayload) {
		return Frame{}, 0, &ErrProtocol{msg: fmt.Sprintf("payload %d exceeds limit %d", n, maxPayload)}
	}
	fr := Frame{Ver: hdr[2], Op: hdr[3], ID: binary.BigEndian.Uint32(hdr[4:8])}
	_, _ = br.Discard(HeaderSize) // cannot fail: the bytes were peeked
	return fr, int(n), nil
}

// ReadFramePooled reads and validates one frame (see readHeader for what is
// rejected), with the payload read into a pooled buffer (GetBuf). The
// caller owns the payload and must return it with PutBuf once the frame is
// fully handled — which also means the payload must not escape the handler
// (decoders copy what they keep). The last parameter was the highest
// version to accept; with one version it is ignored, and stays because the
// benchmark compiles against it.
func ReadFramePooled(br *bufio.Reader, maxPayload int, _ byte) (Frame, error) {
	fr, n, err := readHeader(br, maxPayload)
	if err != nil || n == 0 {
		return fr, err
	}
	fr.Payload = GetBuf(n)[:n]
	if _, err := io.ReadFull(br, fr.Payload); err != nil {
		PutBuf(fr.Payload)
		return Frame{}, err
	}
	return fr, nil
}
