package experiments

import "testing"

// TestTransportWordCountByteIdentical is the transport suite's equality
// gate as a standalone test: the same deterministic WordCount over every
// transport must produce byte-identical canonical output. CI runs this
// under -race: the vectored TCP writer's batching is exactly the code a
// data race would corrupt.
func TestTransportWordCountByteIdentical(t *testing.T) {
	if err := transportEqualityGate(SmokeTransportBench()); err != nil {
		t.Fatal(err)
	}
}

// TestNewTransportWorldRejectsUnknown pins the error path every
// -transport flag shares.
func TestNewTransportWorldRejectsUnknown(t *testing.T) {
	if _, err := NewTransportWorld("carrier-pigeon", 2); err == nil {
		t.Fatal("unknown transport accepted")
	}
}
