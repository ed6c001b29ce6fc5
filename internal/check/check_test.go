package check

import "testing"

// TestEvolveTagDeterminism pins the oracle's write transition: pure in
// (tag, pfn), never zero, and sensitive to both inputs.
func TestEvolveTagDeterminism(t *testing.T) {
	if evolveTag(42, 7) != evolveTag(42, 7) {
		t.Error("evolveTag is not deterministic")
	}
	if evolveTag(42, 7) == evolveTag(42, 8) || evolveTag(42, 7) == evolveTag(43, 7) {
		t.Error("evolveTag ignores an input")
	}
	for _, tag := range []uint64{0, 1, 0xffffffffffffffff} {
		if evolveTag(tag, 3) == 0 {
			t.Error("evolveTag produced the reserved zero tag")
		}
	}
}
