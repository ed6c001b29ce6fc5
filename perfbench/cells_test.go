package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"snapbpf/internal/experiments"
	"snapbpf/internal/store"
)

// tiny is a cheap workload covering the local and cold-checked paths.
var tiny = workloadDef{
	name: "tiny",
	cells: []spec{
		{fn: "pyaes", scheme: snapBPF, n: 1},
		{fn: "pyaes", scheme: snapBPF, n: 2, tier: store.TierCold, policy: store.PolicyWSLazy, check: true},
		{fn: "pyaes", scheme: linuxRA, n: 2, tier: store.TierCold, policy: store.PolicyWSLazy, check: true},
	},
	warmup: spec{fn: "float", scheme: linuxRA, n: 1},
}

// simMetrics runs the tiny workload once and returns its sim_* metrics.
func simMetrics(t *testing.T, seed int64) map[string]float64 {
	t.Helper()
	b := &bench{w: tiny, seed: seed, stderr: io.Discard}
	if _, err := b.setup(); err != nil {
		t.Fatal(err)
	}
	b.timed(0)
	b.oracle()
	if len(b.failures) > 0 {
		t.Fatalf("failures: %q", b.failures)
	}
	out := map[string]float64{}
	for _, m := range b.endToEnd(1, 1, 1) {
		if strings.HasPrefix(m.name, "sim_") {
			out[m.name] = m.value
		}
	}
	return out
}

func TestSameSeedSameSimMetrics(t *testing.T) {
	a, b := simMetrics(t, 7), simMetrics(t, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 7 twice: %v vs %v", a, b)
	}
	if c := simMetrics(t, 8); reflect.DeepEqual(a, c) {
		t.Errorf("seeds 7 and 8 gave identical sim metrics %v", a)
	}
}

func TestSeedChangesTracesNotCells(t *testing.T) {
	for _, w := range workloads {
		c1, warm1, err := w.build(1)
		if err != nil {
			t.Fatal(err)
		}
		c2, warm2, err := w.build(2)
		if err != nil {
			t.Fatal(err)
		}
		if len(c1) != len(c2) || warm1.spanName(w.name) != warm2.spanName(w.name) {
			t.Fatalf("%s: cell lists differ in length or warm-up", w.name)
		}
		traced := map[string]bool{}
		for i := range c1 {
			if c1[i].spanName(w.name) != c2[i].spanName(w.name) {
				t.Errorf("%s cell %d: %s vs %s", w.name, i, c1[i].spanName(w.name), c2[i].spanName(w.name))
			}
			f1, f2 := c1[i].Fn, c2[i].Fn
			if f1.Seed == f2.Seed {
				t.Errorf("%s: %s keeps seed %d", w.name, f1.Name, f1.Seed)
			}
			f1.Seed, f2.Seed = 0, 0
			if f1 != f2 {
				t.Errorf("%s: seed changed sizes of %s: %+v vs %+v", w.name, f1.Name, f1, f2)
			}
			if traced[f1.Name] {
				continue
			}
			traced[f1.Name] = true
			if reflect.DeepEqual(c1[i].Fn.GenTrace().Ops, c2[i].Fn.GenTrace().Ops) {
				t.Errorf("%s: seeds 1 and 2 give %s the same trace", w.name, f1.Name)
			}
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	if deriveSeed(1, "json") != deriveSeed(1, "json") {
		t.Fatal("deriveSeed is not a function")
	}
	seen := map[int64]string{}
	for _, name := range []string{"json", "html", "bert", "bfs"} {
		for seed := int64(-2); seed <= 2; seed++ {
			s := deriveSeed(seed, name)
			if s < 0 {
				t.Errorf("deriveSeed(%d, %s) = %d < 0", seed, name, s)
			}
			if prev, ok := seen[s]; ok {
				t.Errorf("deriveSeed collision: %s and %s/%d", prev, name, seed)
			}
			seen[s] = name
		}
	}
}

func TestOutputDriftFailsCell(t *testing.T) {
	b := &bench{w: tiny, seed: 1, stderr: io.Discard}
	if _, err := b.setup(); err != nil {
		t.Fatal(err)
	}
	if res, _ := b.runCell("timed", 0, b.cells[0].config()); res == nil {
		t.Fatalf("first run failed: %q", b.failures)
	}
	b.first[0].DeviceBytes++ // as if the first pass had read one more byte
	if res, _ := b.runCell("counted", 0, b.cells[0].config()); res != nil || len(b.failures) != 1 {
		t.Fatalf("drifted output not failed: %q", b.failures)
	}
	if b.attempted != 2 {
		t.Errorf("attempted = %d, want 2", b.attempted)
	}
}

func TestOracleFlagsDigestMismatch(t *testing.T) {
	cells, _, err := tiny.build(1)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{w: tiny, cells: cells, results: []*experiments.RunResult{
		{Digest: 1}, {Digest: 2}, {Digest: 3},
	}}
	b.oracle()
	// Cell 0 is unchecked; cells 1 and 2 share pyaes/cold/wslazy.
	if len(b.failures) != 1 || !strings.Contains(b.failures[0], "oracle tiny/pyaes/Linux-RA/2/cold/wslazy") {
		t.Fatalf("failures = %q", b.failures)
	}
}

// TestMetricNames pins the emitted metric names to the ones
// BENCHMARK.json declares, in both modes, and to the name alphabet.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	b := &bench{w: tiny}
	check := func(mode string, got []metric, want []struct{ Name, Unit string }) {
		valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
		var names, wantNames []string
		for _, m := range got {
			if !valid.MatchString(m.name) {
				t.Errorf("%s metric name %q", mode, m.name)
			}
			names = append(names, m.name+" "+m.unit)
		}
		for _, m := range want {
			wantNames = append(wantNames, m.Name+" "+m.Unit)
		}
		if !reflect.DeepEqual(names, wantNames) {
			t.Errorf("%s metrics:\n got  %q\n want %q", mode, names, wantNames)
		}
	}
	check("end-to-end", b.endToEnd(1, 1, 1), decl.EndToEnd)
	check("per-layer", b.perLayer(1, &profileResult{}, map[string]int64{}), decl.PerLayer)
}
