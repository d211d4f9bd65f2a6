package client

import "venn/internal/transport"

// ForwardRaw is the federation layer's one hop sender (internal/cluster):
// it relays an already-encoded request of serving opcode op — OpCheckInBatch
// or OpReportBatch — to the daemon that owns its devices, and hands the reply
// payload to dec (nil ignores it). payload is the request's v2 wire form: the
// uvarint item count then the items' wire bytes.
//
// The frame carries transport.HopFlag, which tells the receiving daemon to
// serve the request itself and never forward it again (the hop guard against
// routing loops between daemons with disagreeing rings); the same
// multiplexing connection pool carries forwarded and first-hand traffic.
// trace is the forwarding daemon's sampled span ID (0 when the originating
// request is unsampled): a nonzero trace rides ahead of the payload under
// transport.TraceFlag, so the receiving daemon records the hop under the same
// trace ID and the two flight-recorder entries can be joined.
//
// Unlike a reqEncoder's product, payload stays the caller's to recycle: it is
// written out before ForwardRaw returns and never recycled here, though a
// trace context may have been prepended in place, so its bytes are not to be
// read again. The reply is a pooled buffer recycled when dec returns, so dec
// copies what it keeps.
func (s *StreamClient) ForwardRaw(op byte, payload []byte, trace uint64, dec func(reply []byte) error) error {
	_, err := s.pick().do(op|transport.HopFlag, trace, true, encoded(payload), dec)
	return err
}
