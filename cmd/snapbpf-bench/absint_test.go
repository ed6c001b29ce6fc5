package main

import (
	"strings"
	"testing"
)

// TestAbsintReportOutput checks the -absint-report path: both built-in
// programs appear, both verify, and the capture program carries a
// finite worst-case bound.
func TestAbsintReportOutput(t *testing.T) {
	var sb strings.Builder
	if err := writeAbsintReport(&sb); err != nil {
		t.Fatalf("built-in programs must verify cleanly: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"program snapbpf-capture: OK",
		"program snapbpf-prefetch: OK",
		"worst case 39 insns",
		"worst case unbounded (dynamic budget applies)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
