package client

import (
	"venn/internal/server"
	"venn/internal/transport"
)

// Forwarded-request variants of the serving calls, used by the federation
// layer (internal/cluster) when relaying a request to the daemon that owns
// its device. They are identical to their plain counterparts except that the
// request opcode carries transport.HopFlag, which tells the receiving daemon
// to serve the request itself and never forward it again (the hop guard
// against routing loops between daemons with disagreeing rings). The same
// multiplexing connection pool carries forwarded and first-hand traffic.
//
// trace is the forwarding daemon's sampled span ID (0 when the originating
// request is unsampled): a nonzero trace rides ahead of the payload under
// transport.TraceFlag, so the receiving daemon records the hop under the
// same trace ID and the two flight-recorder entries can be joined.

// CheckInForward relays a check-in to its owning daemon.
func (s *StreamClient) CheckInForward(ci server.CheckIn, trace uint64) (server.Assignment, error) {
	asg, _, err := s.checkInOp(transport.OpCheckIn|transport.HopFlag, ci, trace)
	return asg, err
}

// CheckInBatchForward relays an owner-split check-in batch to its owning
// daemon. Results[i] answers cis[i].
func (s *StreamClient) CheckInBatchForward(cis []server.CheckIn, trace uint64) ([]server.CheckInResult, error) {
	res, _, err := s.checkInBatchOp(transport.OpCheckInBatch|transport.HopFlag, cis, trace)
	return res, err
}

// ReportForward relays a task report to its owning daemon.
func (s *StreamClient) ReportForward(r server.Report, trace uint64) error {
	_, err := s.reportOp(transport.OpReport|transport.HopFlag, r, trace)
	return err
}

// ReportBatchForward relays an owner-split report batch to its owning
// daemon. Results[i] answers rs[i].
func (s *StreamClient) ReportBatchForward(rs []server.Report, trace uint64) ([]server.ReportResult, error) {
	res, _, err := s.reportBatchOp(transport.OpReportBatch|transport.HopFlag, rs, trace)
	return res, err
}

// ForwardRaw relays an already-encoded batch request — payload is the
// canonical layout, uvarint item count then the items' wire bytes — to the
// owning daemon in one hop frame of opcode op (OpCheckInBatch or
// OpReportBatch), and hands the reply payload to dec. Unlike a reqEncoder's
// product, payload stays the caller's: it is written out before ForwardRaw
// returns and never recycled here. The reply is a pooled buffer recycled when
// dec returns, so dec copies what it keeps.
func (s *StreamClient) ForwardRaw(op byte, payload []byte, trace uint64, dec func(reply []byte) error) error {
	_, err := s.pick().do(op|transport.HopFlag, trace, true, encoded(payload), dec)
	return err
}
