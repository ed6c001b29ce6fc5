package main

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerOfInnermostInternalFrameWins(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{
			"runtime.mallocgc",
			"snapbpf/internal/guest.(*Kernel).AllocPFNs",
			"snapbpf/internal/vmm.(*MicroVM).Invoke",
			"snapbpf/internal/experiments.Run.func3",
		}, "guest"},
		{[]string{
			"snapbpf/internal/pagecache.(*Cache).FaultPage",
			"snapbpf/internal/hostmm.(*MM).HandleFault",
			"snapbpf/internal/kvm.(*VCPU).handleNestedFault",
		}, "pagecache"},
		{[]string{"runtime.chansend", "snapbpf/internal/sim.(*Proc).Sleep", "snapbpf/internal/blockdev.(*Device).Submit"}, "sim"},
		{[]string{"snapbpf/internal/ebpf/absint.Analyze", "snapbpf/internal/ebpf.Load"}, "ebpf"},
		{[]string{"snapbpf/internal/trace.(*Trace).Validate", "snapbpf/internal/vmm.BuildImage"}, "workload"},
		{[]string{"snapbpf/internal/costmodel.Perturb", "snapbpf/internal/sim.(*Engine).Run"}, "other"},
		{[]string{"snapbpf/internal/units.ByteSize.Pages"}, "other"},
		{[]string{"snapbpf/internal/store.(*HostCache).fetch[...]"}, "store"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestLayerOfPrefetchSchemes(t *testing.T) {
	for _, fn := range []string{
		"snapbpf/internal/core.(*SnapBPF).PrepareVM",
		"snapbpf/internal/prefetch/reap.(*REAP).Record",
		"snapbpf/internal/prefetch/faast.(*Faast).PrepareVM",
		"snapbpf/internal/prefetch/faasnap.(*FaaSnap).RestoreConfig",
		"snapbpf/internal/prefetch.(*LinuxRA).PrepareVM",
	} {
		if got := layerOf([]string{"runtime.memmove", fn}); got != "prefetch" {
			t.Errorf("layerOf(%q) = %q, want prefetch", fn, got)
		}
	}
}

func TestLayerOfRuntimeOnlyStacks(t *testing.T) {
	sched := [][]string{
		{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"},
		{"runtime._System"},
		{},
		{"main.run", "main.main", "runtime.main"}, // no internal frame
	}
	for _, s := range sched {
		if got := layerOf(s); got != layerSched {
			t.Errorf("layerOf(%q) = %q, want %q", s, got, layerSched)
		}
	}
	gc := [][]string{
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"},
		{"runtime.sweepone", "runtime.bgsweep"},
		{"runtime.scavengeOne", "runtime.bgscavenge"},
	}
	for _, s := range gc {
		if got := layerOf(s); got != layerGC {
			t.Errorf("layerOf(%q) = %q, want %q", s, got, layerGC)
		}
	}
	// A mark assist runs on the allocating goroutine: its internal
	// frame wins over the GC.
	assist := []string{"runtime.gcAssistAlloc", "runtime.mallocgc", "snapbpf/internal/guest.(*Kernel).Touch"}
	if got := layerOf(assist); got != "guest" {
		t.Errorf("mark assist attributed to %q, want guest", got)
	}
}

func TestLayerSumsEqualTotal(t *testing.T) {
	samples := []sample{
		{stack: []string{"snapbpf/internal/guest.F"}, nanos: 10_000_000},
		{stack: []string{"snapbpf/internal/sim.F"}, nanos: 20_000_000},
		{stack: []string{"runtime.findRunnable"}, nanos: 30_000_000},
		{stack: []string{"runtime.gcBgMarkWorker"}, nanos: 40_000_000},
		{stack: []string{"snapbpf/internal/cluster.F"}, nanos: 50_000_000},
		{stack: []string{"snapbpf/internal/core.F"}, nanos: 60_000_000},
	}
	byLayer, total := layerNanos(samples)
	var sum int64
	for l, ns := range byLayer {
		if !knownLayer(l) {
			t.Errorf("sample attributed to unlisted layer %q", l)
		}
		sum += ns
	}
	if sum != total || total != 210_000_000 {
		t.Fatalf("layer sum %d, total %d, want both 210000000", sum, total)
	}
	if byLayer["other"] != 50_000_000 || byLayer["prefetch"] != 60_000_000 {
		t.Errorf("byLayer = %v", byLayer)
	}
}

func knownLayer(l string) bool {
	for _, k := range layers {
		if k == l {
			return true
		}
	}
	return false
}

// TestParseProfile decodes a real CPU profile of a labelled busy loop.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels(cellLabel, "w/f/s/1/local/none"), func(context.Context) {
		spin(300 * time.Millisecond)
	})
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var labelled, inSpin int
	for _, s := range samples {
		if s.nanos <= 0 || s.count <= 0 {
			t.Fatalf("sample with %d ns, count %d", s.nanos, s.count)
		}
		if s.label == "w/f/s/1/local/none" {
			labelled++
		}
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				inSpin++
				break
			}
		}
	}
	if labelled == 0 || inSpin == 0 {
		t.Fatalf("%d samples, %d labelled, %d in spin; want some of each", len(samples), labelled, inSpin)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}

var spinSink uint64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink = spinSink*6364136223846793005 + 1442695040888963407
		}
	}
}
