package experiments

import (
	"testing"

	"snapbpf/internal/workload"
)

// Golden-output regression tests: the simulation is deterministic, so
// these experiments' CSV output is pinned byte for byte. A diff here
// means a change shifted the paper's reproduced results — either a bug,
// or an intentional model change whose new numbers must be reviewed
// and re-pinned.

func goldenFunctions(t *testing.T) []workload.Function {
	t.Helper()
	var fns []workload.Function
	for _, f := range workload.Suite() {
		if f.Name == "json" || f.Name == "image" {
			fns = append(fns, f)
		}
	}
	if len(fns) != 2 {
		t.Fatalf("expected json+image in suite, got %d functions", len(fns))
	}
	return fns
}

const goldenTable1CSV = `Scheme,Mechanism,On-disk WS serialization,In-memory WS dedup,Stateless VM alloc filtering
REAP,Userfaultfd (User-space),Yes,No,No
Faast,Userfaultfd (User-space),Yes,No,No
FaaSnap,mincore / mmap (User-space),Yes,Yes,No
SnapBPF,eBPF (Kernel-space),No,Yes,Yes
`

const goldenFig3aCSV = `Function,REAP,FaaSnap,SnapBPF,SnapBPF (s)
image,2.16,0.96,1.00,0.343
json,0.99,1.08,1.00,0.116
`

const goldenFig4CSV = `Function,Linux-RA,PVPTEs,SnapBPF
image,1.00,0.42,0.32
json,1.00,0.90,0.57
`

const goldenOverheadsCSV = `Function,WS groups,Load (ms),E2E (s),Load/E2E
image,240,0.218,0.343,0.06%
json,160,0.146,0.116,0.13%
`

func TestGoldenTable1(t *testing.T) {
	tbl, err := Table1(Options{Functions: goldenFunctions(t), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.CSV(); got != goldenTable1CSV {
		t.Errorf("table1 CSV drifted:\n--- got ---\n%s--- want ---\n%s", got, goldenTable1CSV)
	}
}

func TestGoldenFig3a(t *testing.T) {
	tbl, err := Fig3a(Options{Functions: goldenFunctions(t), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.CSV(); got != goldenFig3aCSV {
		t.Errorf("fig3a CSV drifted:\n--- got ---\n%s--- want ---\n%s", got, goldenFig3aCSV)
	}
}

func TestGoldenFig4(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-pinning is value-level; the non-race suite covers it")
	}
	tbl, err := Fig4(Options{Functions: goldenFunctions(t), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.CSV(); got != goldenFig4CSV {
		t.Errorf("fig4 CSV drifted:\n--- got ---\n%s--- want ---\n%s", got, goldenFig4CSV)
	}
}

// The remaining pins run json only: fig3b regenerates five schemes per
// function and takes minutes per extra function on a small runner, and
// the json row alone already pins every scheme column byte for byte.
func goldenJSONOnly(t *testing.T) []workload.Function {
	t.Helper()
	return goldenFns(t, "json")
}

// goldenFns resolves the named suite functions.
func goldenFns(t *testing.T, names ...string) []workload.Function {
	t.Helper()
	var fns []workload.Function
	for _, name := range names {
		fn, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		fns = append(fns, fn)
	}
	return fns
}

const goldenFig3bCSV = `Function,Linux-NoRA,Linux-RA,REAP,SnapBPF,REAP/SnapBPF
json,0.983,0.204,0.639,0.116,5.53x
`

const goldenFig3cCSV = `Function,Linux-NoRA,Linux-RA,REAP,SnapBPF,REAP/SnapBPF
json,0.14,0.15,0.33,0.14,2.4x
`

const goldenAblationRAWindowCSV = `Function/window,E2E (s),device MiB,requests
json/w=0,0.983,33.5,8576
json/w=8,0.277,35.0,1120
json/w=32,0.204,37.5,300
json/w=128,0.204,47.5,95
json/w=512,0.270,84.3,171
`

// goldenPin runs an experiment serially and pins its CSV bytes, then
// reruns it on a worker pool and asserts the parallel bytes are equal —
// the schedule-independence half of the determinism contract.
func goldenPin(t *testing.T, name string, run func(Options) (*Table, error), want string) {
	t.Helper()
	goldenPinFns(t, name, goldenJSONOnly(t), run, want)
}

// goldenPinFns is goldenPin over an explicit function set.
func goldenPinFns(t *testing.T, name string, fns []workload.Function, run func(Options) (*Table, error), want string) {
	t.Helper()
	serial, err := run(Options{Functions: fns, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := serial.CSV(); got != want {
		t.Errorf("%s CSV drifted:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
	parallel, err := run(Options{Functions: fns, Parallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := parallel.CSV(); got != serial.CSV() {
		t.Errorf("%s parallel CSV differs from serial:\n--- parallel ---\n%s--- serial ---\n%s",
			name, got, serial.CSV())
	}
}

func TestGoldenFig3b(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-pinning is value-level; the non-race suite covers it")
	}
	goldenPin(t, "fig3b", Fig3b, goldenFig3bCSV)
}

func TestGoldenFig3c(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-pinning is value-level; the non-race suite covers it")
	}
	goldenPin(t, "fig3c", Fig3c, goldenFig3cCSV)
}

func TestGoldenAblationRAWindow(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-pinning is value-level; the non-race suite covers it")
	}
	goldenPin(t, "ablation-rawindow", AblationRAWindow, goldenAblationRAWindowCSV)
}

func TestGoldenOverheads(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-pinning is value-level; the non-race suite covers it")
	}
	tbl, err := Overheads(Options{Functions: goldenFunctions(t), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.CSV(); got != goldenOverheadsCSV {
		t.Errorf("overheads CSV drifted:\n--- got ---\n%s--- want ---\n%s", got, goldenOverheadsCSV)
	}
}

// The extension pins run json + pyaes: two small functions keep the
// co-location run multi-tenant while the pins stay a few seconds.
const goldenExtSteadyStateCSV = `Function,scheme,wave 1,wave 2,wave 3,device (MiB),peak mem (GiB)
json,REAP,0.330,0.330,0.330,502.5,0.16
json,SnapBPF,0.116,0.103,0.103,26.1,0.08
pyaes,REAP,0.136,0.136,0.136,195.0,0.06
pyaes,SnapBPF,0.078,0.067,0.067,9.1,0.03
`

const goldenExtColocationCSV = `Scheme,host memory (GiB),device (MiB),mean E2E across functions (s)
REAP,0.09,93.0,0.153
SnapBPF,0.07,35.2,0.098
`

func TestGoldenExtSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-pinning is value-level; the non-race suite covers it")
	}
	goldenPinFns(t, "ext-steady-state", goldenFns(t, "json", "pyaes"), ExtSteadyState, goldenExtSteadyStateCSV)
}

func TestGoldenExtColocation(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-pinning is value-level; the non-race suite covers it")
	}
	goldenPinFns(t, "ext-colocation", goldenFns(t, "json", "pyaes"), ExtColocation, goldenExtColocationCSV)
}
