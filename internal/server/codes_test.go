package server

import "testing"

// TestWireCodesFrozen pins the numeric values of the service error codes.
// They are stable wire codes — carried in stream OpError frames and HTTP
// error bodies, and classified on by clients of both transports — so a
// renumbering is a protocol break, not a refactor. If this test fails, you
// changed the wire protocol: add new codes at the end instead.
func TestWireCodesFrozen(t *testing.T) {
	frozen := map[Code]int{
		CodeInvalid:     1,
		CodeNotFound:    2,
		CodeTooLarge:    4,
		CodeUnavailable: 5,
	}
	for code, want := range frozen {
		if int(code) != want {
			t.Errorf("code value drifted: got %d, want %d", int(code), want)
		}
	}
	// 3 is reserved: it was the single check-in's busy device.
	if len(frozen) != 4 {
		t.Error("update this test (append-only) when adding codes")
	}
}
