package check_test

import (
	"strings"
	"testing"

	"snapbpf/internal/prefetch"
	"snapbpf/internal/sim"
	"snapbpf/internal/testbed"
	"snapbpf/internal/vmm"
	"snapbpf/internal/workload"
)

// runChecked drives one cold start of the demand-paging baseline on a
// checked host and returns the pieces a test needs to poke at.
func runChecked(t *testing.T) (*testbed.Host, *testbed.Func, *vmm.MicroVM, uint64) {
	t.Helper()
	fn, err := workload.ByName("json")
	if err != nil {
		t.Fatal(err)
	}
	h := testbed.New(sim.NewEngine(), testbed.Config{Check: true})
	f := h.AddFunction(fn, testbed.Scheme{Name: "Linux-NoRA", New: func() prefetch.Prefetcher { return prefetch.NewLinuxNoRA() }},
		fn.Name+".snapmem")
	var vm *vmm.MicroVM
	var digest uint64
	h.Eng.Go("vm0", func(p *sim.Proc) { vm, _, digest, err = f.ColdStart(p, "vm0", 0, f.Env.InvokeTrace) })
	h.Eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return h, f, vm, digest
}

// TestCleanRunHasNoViolations is the positive control: a healthy
// demand-paging run armed with the checker finishes clean and yields a
// digest.
func TestCleanRunHasNoViolations(t *testing.T) {
	h, _, vm, digest := runChecked(t)
	if digest == 0 {
		t.Error("digest is zero")
	}
	vm.Shutdown()
	if err := h.Verify(); err != nil {
		t.Fatalf("clean run reported violations: %v", err)
	}
}

// TestBrokenDedupCounterCaught corrupts the page cache's rmap counter
// directly — an extra MapPage with no address-space event behind it,
// exactly the kind of accounting bug the dedup cross-check exists for —
// and requires Finish to flag it.
func TestBrokenDedupCounterCaught(t *testing.T) {
	h, f, vm, _ := runChecked(t)

	// Find a resident snapshot page and give it a phantom rmap ref.
	ino := f.Env.SnapInode
	sabotaged := int64(-1)
	for idx := int64(0); idx < ino.NrPages(); idx++ {
		if ino.Resident(idx) {
			ino.MapPage(idx)
			sabotaged = idx
			break
		}
	}
	if sabotaged < 0 {
		t.Fatal("no resident snapshot page to sabotage")
	}

	vm.Shutdown()
	err := h.Verify()
	if err == nil {
		t.Fatal("broken dedup counter not caught")
	}
	if !strings.Contains(err.Error(), "rmap-dedup-accounting") {
		t.Fatalf("wrong diagnosis: %v", err)
	}
}
