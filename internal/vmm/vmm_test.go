package vmm

import (
	"runtime"
	"testing"
	"time"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/sim"
	"snapbpf/internal/snapshot"
	"snapbpf/internal/trace"
	"snapbpf/internal/workload"
)

func smallFn() workload.Function {
	return workload.Function{
		Name: "tiny", MemMiB: 16, StateMiB: 8, WSMiB: 2, WSRegions: 4,
		AllocMiB: 2, ComputeMs: 5, WriteFrac: 0.2, Seed: 42,
	}
}

func TestBuildImage(t *testing.T) {
	fn := smallFn()
	img := BuildImage(fn, false)
	if err := img.Validate(); err != nil {
		t.Fatal(err)
	}
	if img.NrPages != fn.MemPages() || img.StatePages != fn.StatePages() {
		t.Fatalf("image geometry wrong: %+v", img)
	}
	// State pages nonzero; free pool stale nonzero.
	if img.PageTags[0] == 0 || img.PageTags[img.NrPages-1] == 0 {
		t.Fatal("expected nonzero tags without zero-on-free")
	}
	if int64(len(img.FreePFNs)) != img.NrPages-img.StatePages {
		t.Fatalf("free pfns = %d", len(img.FreePFNs))
	}
}

func TestBuildImageZeroOnFree(t *testing.T) {
	img := BuildImage(smallFn(), true)
	if img.PageTags[img.StatePages] != 0 {
		t.Fatal("free pool not zeroed with zero-on-free")
	}
	if img.ZeroPages() != img.NrPages-img.StatePages {
		t.Fatalf("ZeroPages = %d", img.ZeroPages())
	}
}

func TestRestoreInvokeLifecycle(t *testing.T) {
	h := NewHost(blockdev.MicronSATA5300())
	fn := smallFn()
	img := BuildImage(fn, false)
	ino := h.RegisterSnapshot("tiny.snapmem", img)
	tr := fn.GenTrace()

	var stats InvokeStats
	h.Eng.Go("vm0", func(p *sim.Proc) {
		vm, err := h.Restore(p, "vm0", fn, img, ino, RestoreConfig{})
		if err != nil {
			t.Error(err)
			return
		}
		vm.MapSnapshotDefault(p)
		vm.MarkPrepared(p)
		stats, err = vm.Invoke(p, tr)
		if err != nil {
			t.Error(err)
		}
	})
	h.Eng.Run()

	sum := tr.Summarize()
	if stats.E2E < h.CM.VMRestoreBase+sum.TotalCompute {
		t.Fatalf("E2E %v below restore+compute floor", stats.E2E)
	}
	if stats.KVM.NestedFaults == 0 {
		t.Fatal("no nested faults recorded")
	}
	// Every unique WS page had to come from the snapshot file.
	if got := ino.ResidentPages(); got < sum.UniquePages {
		t.Fatalf("resident snapshot pages = %d < unique WS %d", got, sum.UniquePages)
	}
}

func TestInvokeTwiceRejected(t *testing.T) {
	h := NewHost(blockdev.MicronSATA5300())
	fn := smallFn()
	img := BuildImage(fn, false)
	ino := h.RegisterSnapshot("s", img)
	tr := &trace.Trace{Ops: []trace.Op{{Kind: trace.OpCompute, Gap: time.Millisecond}}}
	h.Eng.Go("vm0", func(p *sim.Proc) {
		vm, _ := h.Restore(p, "vm0", fn, img, ino, RestoreConfig{})
		vm.MapSnapshotDefault(p)
		if _, err := vm.Invoke(p, tr); err != nil {
			t.Error(err)
		}
		if _, err := vm.Invoke(p, tr); err == nil {
			t.Error("second invoke accepted")
		}
	})
	h.Eng.Run()
}

func TestRestoreGeometryMismatch(t *testing.T) {
	h := NewHost(blockdev.MicronSATA5300())
	fn := smallFn()
	img := BuildImage(fn, false)
	ino := h.RegisterSnapshot("s", img)
	other := fn
	other.MemMiB = 32
	h.Eng.Go("vm0", func(p *sim.Proc) {
		if _, err := h.Restore(p, "vm0", other, img, ino, RestoreConfig{}); err == nil {
			t.Error("mismatched image accepted")
		}
	})
	h.Eng.Run()
}

func TestPVMarkingAvoidsSnapshotIOForAllocs(t *testing.T) {
	fn := smallFn()
	img := BuildImage(fn, false)
	tr := fn.GenTrace()
	run := func(pv bool) (devBytes int64, mirror int64) {
		h := NewHost(blockdev.MicronSATA5300())
		ino := h.RegisterSnapshot("s", img)
		h.Eng.Go("vm0", func(p *sim.Proc) {
			vm, _ := h.Restore(p, "vm0", fn, img, ino, RestoreConfig{PVMarking: pv})
			vm.MapSnapshotDefault(p)
			if _, err := vm.Invoke(p, tr); err != nil {
				t.Error(err)
			}
		})
		h.Eng.Run()
		return h.Dev.Stats().BytesRead, 0
	}
	withPV, _ := run(true)
	withoutPV, _ := run(false)
	if withPV >= withoutPV {
		t.Fatalf("PV marking did not reduce snapshot I/O: %d vs %d", withPV, withoutPV)
	}
}

func TestZeroOnFreeWritesFreedPages(t *testing.T) {
	fn := smallFn()
	img := BuildImage(fn, true)
	tr := fn.GenTrace()
	h := NewHost(blockdev.MicronSATA5300())
	ino := h.RegisterSnapshot("s", img)
	var stats InvokeStats
	h.Eng.Go("vm0", func(p *sim.Proc) {
		vm, err := h.Restore(p, "vm0", fn, img, ino, RestoreConfig{ZeroOnFree: true})
		if err != nil {
			t.Error(err)
			return
		}
		vm.MapSnapshotDefault(p)
		stats, err = vm.Invoke(p, tr)
		if err != nil {
			t.Error(err)
		}
	})
	h.Eng.Run()
	if stats.E2E == 0 {
		t.Fatal("no stats")
	}
}

func TestShutdownReleasesAnon(t *testing.T) {
	h := NewHost(blockdev.MicronSATA5300())
	fn := smallFn()
	img := BuildImage(fn, false)
	ino := h.RegisterSnapshot("s", img)
	tr := fn.GenTrace()
	h.Eng.Go("vm0", func(p *sim.Proc) {
		vm, _ := h.Restore(p, "vm0", fn, img, ino, RestoreConfig{})
		vm.MapSnapshotDefault(p)
		if _, err := vm.Invoke(p, tr); err != nil {
			t.Error(err)
		}
		if vm.AS.AnonPages() == 0 {
			t.Error("expected anon pages from writes/allocs")
		}
		vm.Shutdown()
		if vm.AS.AnonPages() != 0 {
			t.Error("shutdown did not release anon memory")
		}
	})
	h.Eng.Run()
}

func TestDeterministicE2E(t *testing.T) {
	fn := smallFn()
	img := BuildImage(fn, false)
	tr := fn.GenTrace()
	run := func() time.Duration {
		h := NewHost(blockdev.MicronSATA5300())
		ino := h.RegisterSnapshot("s", img)
		var e2e time.Duration
		h.Eng.Go("vm0", func(p *sim.Proc) {
			vm, _ := h.Restore(p, "vm0", fn, img, ino, RestoreConfig{})
			vm.MapSnapshotDefault(p)
			st, err := vm.Invoke(p, tr)
			if err != nil {
				t.Error(err)
			}
			e2e = st.E2E
		})
		h.Eng.Run()
		return e2e
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic E2E: %v vs %v", a, b)
	}
}

// touchFn has room in its guest free pool for the largest allocation
// the touch tests make.
func touchFn() workload.Function {
	return workload.Function{Name: "touch", MemMiB: 32, StateMiB: 8, Seed: 7}
}

// touchTrace allocates n pages under one handle, writes each page once
// in order, and frees the allocation: the guest-allocation path alone.
func touchTrace(n int) *trace.Trace {
	ops := make([]trace.Op, 0, n+2)
	ops = append(ops, trace.Op{Kind: trace.OpAlloc, Handle: 1, NPages: int32(n)})
	for i := 0; i < n; i++ {
		ops = append(ops, trace.Op{Kind: trace.OpTouch, Handle: 1, Offset: int32(i), Write: true})
	}
	ops = append(ops, trace.Op{Kind: trace.OpFree, Handle: 1})
	return &trace.Trace{Ops: ops}
}

// invokeOnce restores one SnapBPF-patched VM on a fresh host and
// replays tr on it, returning Invoke's error.
func invokeOnce(fn workload.Function, img *snapshot.MemoryImage, tr *trace.Trace) error {
	h := NewHost(blockdev.MicronSATA5300())
	ino := h.RegisterSnapshot("s", img)
	var err error
	h.Eng.Go("vm0", func(p *sim.Proc) {
		var vm *MicroVM
		if vm, err = h.Restore(p, "vm0", fn, img, ino, RestoreConfig{PVMarking: true}); err != nil {
			return
		}
		vm.MapSnapshotDefault(p)
		_, err = vm.Invoke(p, tr)
	})
	h.Eng.Run()
	return err
}

// TestInvokeTouchScalesLinearly pins the guest allocation path to
// linear cost: doubling the pages an allocation touches may at most
// about double the heap bytes and the allocation count of an invoke.
// Work is counted, not timed, so the gate is deterministic.
func TestInvokeTouchScalesLinearly(t *testing.T) {
	const n, maxRatio = 1024, 2.2
	fn := touchFn()
	img := BuildImage(fn, false)
	measure := func(pages int) (allocs, bytes float64) {
		tr := touchTrace(pages)
		run := func() {
			if err := invokeOnce(fn, img, tr); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(3, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc - before.TotalAlloc)
	}
	allocsN, bytesN := measure(n)
	allocs2N, bytes2N := measure(2 * n)
	t.Logf("allocs %.0f -> %.0f, bytes %.0f -> %.0f", allocsN, allocs2N, bytesN, bytes2N)
	if r := allocs2N / allocsN; r > maxRatio {
		t.Errorf("allocations grew %.2fx from %d to %d touched pages (limit %.1fx)", r, n, 2*n, maxRatio)
	}
	if r := bytes2N / bytesN; r > maxRatio {
		t.Errorf("bytes allocated grew %.2fx from %d to %d touched pages (limit %.1fx)", r, n, 2*n, maxRatio)
	}
}

func TestInvokeBadTouch(t *testing.T) {
	fn := touchFn()
	img := BuildImage(fn, false)
	for _, c := range []struct {
		op   trace.Op
		want string
	}{
		{trace.Op{Kind: trace.OpTouch, Handle: 9, Offset: 0}, "vmm: vm0: bad touch handle=9 off=0"},
		{trace.Op{Kind: trace.OpTouch, Handle: 1, Offset: 4}, "vmm: vm0: bad touch handle=1 off=4"},
		{trace.Op{Kind: trace.OpTouch, Handle: 1, Offset: 100}, "vmm: vm0: bad touch handle=1 off=100"},
		{trace.Op{Kind: trace.OpTouch, Handle: 1, Offset: -1}, "vmm: vm0: bad touch handle=1 off=-1"},
	} {
		tr := &trace.Trace{Ops: []trace.Op{{Kind: trace.OpAlloc, Handle: 1, NPages: 4}, c.op}}
		err := invokeOnce(fn, img, tr)
		if err == nil || err.Error() != c.want {
			t.Errorf("touch %+v: err = %v, want %q", c.op, err, c.want)
		}
	}
}

// BenchmarkInvokeTouch measures one restore plus invoke of a 256-page
// allocate/touch/free trace on a SnapBPF-patched VM, so the OpTouch
// path (frame lookup, mirrored nested faults) dominates.
func BenchmarkInvokeTouch(b *testing.B) {
	fn := workload.Function{Name: "touch", MemMiB: 2, StateMiB: 1, Seed: 7}
	img := BuildImage(fn, false)
	tr := touchTrace(256)
	h := NewHost(blockdev.MicronSATA5300())
	ino := h.RegisterSnapshot("s", img)
	b.ReportAllocs()
	b.ResetTimer()
	h.Eng.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			vm, err := h.Restore(p, "vm0", fn, img, ino, RestoreConfig{PVMarking: true})
			if err != nil {
				b.Error(err)
				return
			}
			vm.MapSnapshotDefault(p)
			if _, err := vm.Invoke(p, tr); err != nil {
				b.Error(err)
				return
			}
			vm.Shutdown()
		}
	})
	h.Eng.Run()
}
