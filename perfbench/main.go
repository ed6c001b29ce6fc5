// Command perfbench is the repository benchmark. It runs one named
// workload — a fixed list of experiment cells, each one
// experiments.Run call — in this single process, checks every cell's
// outputs, and prints its metrics as the last line of standard output:
//
//	perfbench -workload large-ws -seed 1 -seconds 25 -trace 0
//
// With -trace 0 it prints the end-to-end metrics: host wall-clock,
// set-up time and peak RSS, and the simulated E2E, memory and device
// traffic. With -trace 1 it prints the per-layer metrics from a
// profiled pass (CPU self time per simulator layer) and a counted pass
// (obs counters), and writes the pass spans and the CPU profile to the
// -out directory. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"snapbpf/internal/experiments"
	"snapbpf/internal/obs"
	"snapbpf/internal/store"
	"snapbpf/internal/trace"
	"snapbpf/internal/units"
)

// processStart approximates process start: package initialisation
// runs before main, after the runtime is up.
var processStart = time.Now()

const (
	// defaultSeed is the workload seed when -seed is not given.
	defaultSeed = 1
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps = 5
	// cellLabel is the pprof label key tying a sample to its cell span.
	cellLabel = "cell"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wlName := fs.String("workload", "", "workload to run: alloc-churn, large-ws or cold-checked")
	seed := fs.Int64("seed", defaultSeed, "workload seed; re-seeds every function's trace generator")
	seconds := fs.Float64("seconds", 25, "minimum host seconds of timed cells (every cell runs at least once)")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from profiled and counted passes")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench", "trace"), "directory for spans and CPU profile (trace 1)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traceMode)
		return 2
	}
	def, err := workloadByName(*wlName)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	b := &bench{w: def, seed: *seed, stderr: stderr}

	st := readStamp()
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d trace=%d git=%s go=%s gomaxprocs=%d engine=%q\n",
		def.name, *seed, *traceMode, st.Git, st.GoVersion, st.GOMAXPROCS, st.Engine)

	setups, err := b.setup()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	var metrics []metric
	if *traceMode == 0 {
		wall, peak := b.timed(time.Duration(*seconds * float64(time.Second)))
		metrics = b.endToEnd(wall, median(setups), peak)
	} else {
		// One timed pass: the base the profiled pass's overhead is
		// measured against, with the same number of cell runs.
		timedWall, _ := b.timed(0)
		prof, err := b.profiled()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: profiled pass: %v\n", err)
			return 1
		}
		counts := b.counted()
		metrics = b.perLayer(timedWall, prof, counts)
		if err := b.writeTrace(*outDir, st, prof); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	b.oracle()

	for _, f := range b.failures {
		fmt.Fprintf(stderr, "perfbench: FAIL %s\n", f)
	}
	for _, m := range metrics {
		fmt.Fprintf(stdout, "%-28s %14.6f %s\n", m.name, m.value, m.unit)
	}
	failed := len(b.failures)
	fmt.Fprintf(stdout, "# cells attempted=%d failed=%d\n", b.attempted, failed)
	if err := printResult(stdout, failed == 0, b.attempted, failed, metrics); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// bench is one workload run: its cells and what the passes measured.
type bench struct {
	w      workloadDef
	seed   int64
	stderr io.Writer // per-cell host time and peak RSS, for diagnosis

	cells     []cell
	touchOps  []int64     // OpTouch ops per invocation trace, per cell
	first     []simOutput // per cell: outputs of its first successful run
	results   []*experiments.RunResult
	attempted int
	failures  []string
	spans     []span
}

// simOutput is what the modelled system reports for a cell. It is
// deterministic, so every pass must produce it bit for bit.
type simOutput struct {
	E2E            []time.Duration
	DeviceBytes    int64
	DeviceRequests int64
	SystemMemory   units.ByteSize
	Store          store.CacheStats
	Remote         store.RemoteStats
	Digest         uint64
}

func outputOf(r *experiments.RunResult) simOutput {
	o := simOutput{E2E: r.E2E, DeviceBytes: r.DeviceBytes, DeviceRequests: r.DeviceRequests,
		SystemMemory: r.SystemMemory, Digest: r.Digest}
	if r.Store != nil {
		o.Store, o.Remote = *r.Store, *r.StoreRemote
	}
	return o
}

// setup builds the cell list and runs the warm-up cell, setupReps
// times; the first repetition is timed from process start. It returns
// each repetition's host seconds.
func (b *bench) setup() ([]float64, error) {
	var out []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		cells, warm, err := b.w.build(b.seed)
		if err != nil {
			return nil, err
		}
		touch := make([]int64, len(cells))
		for j, c := range cells {
			tr := c.Fn.GenTrace()
			if err := tr.Validate(); err != nil {
				return nil, fmt.Errorf("%s: %w", c.spanName(b.w.name), err)
			}
			for _, op := range tr.Ops {
				if op.Kind == trace.OpTouch {
					touch[j]++
				}
			}
		}
		if _, err := experiments.Run(warm.Fn, warm.Scheme, warm.config()); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", warm.spanName(b.w.name), err)
		}
		b.cells, b.touchOps = cells, touch
		out = append(out, time.Since(t0).Seconds())
	}
	b.first = make([]simOutput, len(b.cells))
	b.results = make([]*experiments.RunResult, len(b.cells))
	return out, nil
}

// cellRun is the host-side measurement of one cell run.
type cellRun struct {
	secs    float64 // host seconds of the experiments.Run call
	peakMiB float64 // peak RSS while it ran
}

// runCell runs cell i once under cfg and checks its outputs against
// the cell's earlier runs. The run starts from a collected heap
// returned to the OS, with the kernel's RSS high-water mark reset, so
// neither its time nor its peak RSS carries the previous cell's
// garbage. It returns a nil result when the cell failed.
func (b *bench) runCell(pass string, i int, cfg experiments.Config) (*experiments.RunResult, cellRun) {
	c := b.cells[i]
	name := c.spanName(b.w.name)
	b.attempted++
	fail := func(err error) {
		b.failures = append(b.failures, fmt.Sprintf("%s %s: %v", pass, name, err))
	}
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		fail(err)
		return nil, cellRun{}
	}
	t0 := time.Now()
	res, err := experiments.Run(c.Fn, c.Scheme, cfg)
	run := cellRun{secs: time.Since(t0).Seconds()}
	if err != nil {
		fail(err)
		return nil, run
	}
	if run.peakMiB, err = peakRSS(); err != nil {
		fail(err)
		return nil, run
	}
	fmt.Fprintf(b.stderr, "%-8s %-52s %8.3f s %8.1f MiB\n", pass, name, run.secs, run.peakMiB)
	out := outputOf(res)
	switch {
	case b.results[i] == nil:
		b.first[i], b.results[i] = out, res
	case !reflect.DeepEqual(out, b.first[i]):
		fail(fmt.Errorf("outputs differ from the first run:\n  first %+v\n  now   %+v", b.first[i], out))
		return nil, run
	}
	return res, run
}

// timed runs the cells round-robin until at least d has passed and
// every cell has run once. It returns the sum over cells of each
// cell's median host seconds, and the largest per-cell median of peak
// RSS.
func (b *bench) timed(d time.Duration) (wall, peakMiB float64) {
	secs := make([][]float64, len(b.cells))
	peaks := make([][]float64, len(b.cells))
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < d; round++ {
		for i, c := range b.cells {
			if round > 0 && time.Since(start) >= d {
				break
			}
			if res, run := b.runCell("timed", i, c.config()); res != nil {
				secs[i] = append(secs[i], run.secs)
				peaks[i] = append(peaks[i], run.peakMiB)
			}
		}
	}
	for i := range b.cells {
		if len(secs[i]) > 0 {
			wall += median(secs[i])
			peakMiB = max(peakMiB, median(peaks[i]))
		}
	}
	return wall, peakMiB
}

// endToEnd assembles the trace-0 metrics.
func (b *bench) endToEnd(wall, setup, peakMiB float64) []metric {
	var e2e time.Duration
	var sandboxes int
	var mem, dev float64
	for _, r := range b.results {
		if r == nil {
			continue
		}
		for _, d := range r.E2E {
			e2e += d
		}
		sandboxes += len(r.E2E)
		mem += float64(r.SystemMemory) / float64(units.MiB)
		dev += float64(r.DeviceBytes) / float64(units.MiB)
	}
	return []metric{
		{"wall_s", wall, "s"},
		{"setup_s", setup, "s"},
		{"peak_rss_mb", peakMiB, "MiB"},
		{"sim_e2e_ms", safeDiv(float64(e2e)/float64(time.Millisecond), float64(sandboxes)), "ms"},
		{"sim_memory_mb", safeDiv(mem, float64(len(b.cells))), "MiB"},
		{"sim_device_mb", dev, "MiB"},
	}
}

// profileResult is what the profiled pass measured.
type profileResult struct {
	wall       float64
	raw        []byte
	samples    []sample
	allocBytes uint64
	gcCycles   uint32
}

// profiled runs every cell once under a CPU profile, each call
// labelled with its cell span, and records the pass spans. The
// profile and the MemStats deltas also take in the forced collection
// before each cell, a few milliseconds and one GC cycle per cell.
func (b *bench) profiled() (*profileResult, error) {
	var buf bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	var wall float64 // summed like the timed pass: experiments.Run calls only
	runID := b.beginSpan(b.w.name, "profiled", 0)
	for i, c := range b.cells {
		name := c.spanName(b.w.name)
		id := b.beginSpan(name, "profiled", runID)
		pprof.Do(context.Background(), pprof.Labels(cellLabel, name), func(context.Context) {
			_, run := b.runCell("profiled", i, c.config())
			wall += run.secs
		})
		b.endSpan(id)
	}
	b.endSpan(runID)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return &profileResult{wall: wall, raw: buf.Bytes(), samples: samples,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc, gcCycles: ms1.NumGC - ms0.NumGC}, nil
}

// counted runs every cell once with obs metrics armed and returns the
// counters summed over cells.
func (b *bench) counted() map[string]int64 {
	sum := map[string]int64{}
	runID := b.beginSpan(b.w.name, "counted", 0)
	for i, c := range b.cells {
		id := b.beginSpan(c.spanName(b.w.name), "counted", runID)
		cfg := c.config()
		cfg.Obs = &obs.Config{Metrics: true}
		res, _ := b.runCell("counted", i, cfg)
		b.endSpan(id)
		if res == nil {
			continue
		}
		for _, ctr := range res.Obs.Metrics().Counters {
			sum[ctr.Name] += ctr.Value
		}
	}
	b.endSpan(runID)
	return sum
}

// perLayer assembles the trace-1 metrics.
func (b *bench) perLayer(timedWall float64, p *profileResult, ctr map[string]int64) []metric {
	byLayer, total := layerNanos(p.samples)
	var signals int64
	for _, s := range p.samples {
		signals += s.count
	}
	var touch, devBytes, devReqs int64
	var storeFetches, storeHits, storeDedup, storeBytes int64
	for i, r := range b.results {
		if r == nil {
			continue
		}
		touch += b.touchOps[i] * int64(r.N)
		devBytes += r.DeviceBytes
		devReqs += r.DeviceRequests
		if r.Store != nil {
			storeFetches += r.Store.Fetches
			storeHits += r.Store.Hits
			storeDedup += r.Store.DedupHits
			storeBytes += r.Store.FetchBytes
		}
	}
	self := func(layer string) float64 { return float64(byLayer[layer]) / 1e9 }
	count := func(name string) float64 { return float64(ctr["snapbpf_"+name+"_total"]) }
	inserts := count("cache_inserts_demand") + count("cache_inserts_readahead")
	mib := float64(units.MiB)
	m := []metric{
		{"guest.touch_ops", float64(touch), "count"},
		{"guest.accesses", count("guest_accesses"), "count"},
		{"guest.mirror_accesses", count("guest_mirror_accesses"), "count"},
		{"runtime.alloc_gb", float64(p.allocBytes) / 1e9, "GB"},
		{"runtime.gc_cycles", float64(p.gcCycles), "count"},
		{"sim.events", count("sim_events_scheduled"), "count"},
		{"sim.clock_advances", count("sim_clock_advances"), "count"},
		{"hostmm.faults_file", count("faults_file"), "count"},
		{"hostmm.faults_minor", count("faults_minor"), "count"},
		{"hostmm.faults_zerofill", count("faults_zerofill"), "count"},
		{"hostmm.faults_cow", count("faults_cow"), "count"},
		{"hostmm.faults_uffd", count("faults_uffd"), "count"},
		{"pagecache.inserts_demand", count("cache_inserts_demand"), "count"},
		{"pagecache.inserts_readahead", count("cache_inserts_readahead"), "count"},
		{"pagecache.evictions", count("cache_evictions"), "count"},
		{"pagecache.file_pages_mapped", count("file_pages_mapped"), "count"},
		{"pagecache.mapped_per_insert", safeDiv(count("file_pages_mapped"), inserts), "ratio"},
		{"blockdev.requests", float64(devReqs), "count"},
		{"blockdev.read_mb", float64(devBytes) / mib, "MiB"},
		{"prefetch.pages", count("prefetch_pages"), "count"},
		{"prefetch.groups", count("prefetch_groups"), "count"},
		{"ebpf.offset_loads", count("offset_loads"), "count"},
		{"store.fetches", float64(storeFetches), "count"},
		{"store.hits", float64(storeHits), "count"},
		{"store.dedup_hits", float64(storeDedup), "count"},
		{"store.fetch_mb", float64(storeBytes) / mib, "MiB"},
		{"store.hit_ratio", safeDiv(float64(storeHits), float64(storeHits+storeFetches)), "ratio"},
	}
	for _, l := range layers {
		name := l + ".self_s"
		if strings.HasPrefix(l, "runtime.") {
			name = l + "_s"
		}
		m = append(m, metric{name, self(l), "s"})
	}
	return append(m,
		metric{"profile.total_s", float64(total) / 1e9, "s"},
		metric{"profile.samples", float64(signals), "count"},
		metric{"trace.timed_wall_s", timedWall, "s"},
		metric{"trace.profiled_wall_s", p.wall, "s"},
		metric{"trace.overhead_ratio", safeDiv(p.wall, timedWall), "ratio"},
	)
}

// oracle is the differential check: cells that ran with the invariant
// checker and share function, tier and policy must leave identical
// guest memory whatever their scheme.
func (b *bench) oracle() {
	ref := map[string]int{}
	for i, c := range b.cells {
		r := b.results[i]
		if !c.Check || r == nil {
			continue
		}
		k := c.oracleKey()
		j, ok := ref[k]
		if !ok {
			ref[k] = i
			continue
		}
		if r.Digest != b.results[j].Digest {
			b.failures = append(b.failures, fmt.Sprintf("oracle %s: digest %016x != %s digest %016x",
				c.spanName(b.w.name), r.Digest, b.cells[j].spanName(b.w.name), b.results[j].Digest))
		}
	}
}

// span is one traced interval, kept in memory until the run ends.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent,omitempty"`
	Name   string           `json:"name"`
	Pass   string           `json:"pass"`
	Start  float64          `json:"start_s"` // host seconds since process start
	End    float64          `json:"end_s"`
	Self   map[string]int64 `json:"self_ns,omitempty"` // profiled CPU per layer
}

func (b *bench) beginSpan(name, pass string, parent int) int {
	b.spans = append(b.spans, span{ID: len(b.spans) + 1, Parent: parent, Name: name, Pass: pass,
		Start: time.Since(processStart).Seconds()})
	return len(b.spans)
}

func (b *bench) endSpan(id int) { b.spans[id-1].End = time.Since(processStart).Seconds() }

// writeTrace writes the spans, with the profiled pass's per-layer CPU
// attached to its cell spans (unlabelled samples to the run span),
// and the raw CPU profile.
func (b *bench) writeTrace(dir string, st stamp, p *profileResult) error {
	byLabel := map[string][]sample{}
	for _, s := range p.samples {
		byLabel[s.label] = append(byLabel[s.label], s)
	}
	for i := range b.spans {
		sp := &b.spans[i]
		if sp.Pass != "profiled" {
			continue
		}
		label := sp.Name
		if sp.Parent == 0 {
			label = ""
		}
		sp.Self, _ = layerNanos(byLabel[label])
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.w.name, b.seed))
	doc, err := json.MarshalIndent(struct {
		Stamp stamp  `json:"stamp"`
		Spans []span `json:"spans"`
	}{st, b.spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".spans.json", append(doc, '\n'), 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", p.raw, 0o644)
}

// stamp identifies what was measured.
type stamp struct {
	Git        string `json:"git"`
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Engine     string `json:"snapbpf_ebpf_engine"`
}

func readStamp() stamp {
	return stamp{Git: gitState(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Engine: os.Getenv("SNAPBPF_EBPF_ENGINE")}
}

// gitState is the short commit of the working directory's repository,
// "-dirty" when it has changes, "none" outside a repository.
func gitState() string {
	wd, err := os.Getwd()
	if err != nil {
		return "none"
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		// Stop at the working directory: a checkout nested in another
		// repository must not report that repository's state.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	rev, err := git("rev-parse", "--short", "HEAD")
	if err != nil {
		return "none"
	}
	if st, err := git("status", "--porcelain"); err == nil && st != "" {
		rev += "-dirty"
	}
	return rev
}

type metric struct {
	name  string
	value float64
	unit  string
}

// printResult writes the result line the benchmark contract asks for.
func printResult(w io.Writer, correct bool, attempted, failed int, metrics []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(metrics))
	for _, m := range metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS restarts the kernel's RSS high-water mark (VmHWM) from
// the current RSS.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS reads the RSS high-water mark in MiB.
func peakRSS() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
