// Command snapbpf-bench regenerates every table and figure of the
// SnapBPF paper's evaluation (§4), plus the ablation studies listed in
// DESIGN.md, printing aligned text tables and optionally writing CSV.
//
// Usage:
//
//	snapbpf-bench                      # run everything
//	snapbpf-bench -exp fig3b,fig3c     # selected experiments
//	snapbpf-bench -funcs json,bert     # restrict the workload suite
//	snapbpf-bench -csv out/            # also write CSV per experiment
//	snapbpf-bench -parallel 4          # 4 workers (0 = one per CPU)
//	snapbpf-bench -timing t.json       # write wall-clock timings as JSON
//	snapbpf-bench -faults heavy        # inject storage faults everywhere
//	snapbpf-bench -fault-seed 7        # reseed the injection streams
//	snapbpf-bench -check               # arm the invariant-checking harness
//	snapbpf-bench -trace t.json        # write a Chrome trace of every cell
//	snapbpf-bench -metrics m.json      # write metrics JSON + Prometheus text
//	snapbpf-bench -fitness             # score results vs the paper's numbers
//	snapbpf-bench -replay json         # counterfactual prefetch-decision replay
//	snapbpf-bench -exp cluster -hosts 8 -router affinity -keepalive 2
//	                                   # region-scale run: 8 hosts, one router/budget cell
//	snapbpf-bench -store cold -fetch-policy wslazy
//	                                   # restore from a cold remote chunk store
//	snapbpf-bench -list                # list experiment ids
//	snapbpf-bench -v                   # per-cell progress on stderr
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"snapbpf/internal/calib"
	"snapbpf/internal/cluster"
	"snapbpf/internal/experiments"
	"snapbpf/internal/faults"
	"snapbpf/internal/obs"
	"snapbpf/internal/paper"
	"snapbpf/internal/store"
	"snapbpf/internal/workload"
)

func main() {
	var (
		expFlag    = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		fnFlag     = flag.String("funcs", "", "comma-separated function names (default: full suite)")
		csvDir     = flag.String("csv", "", "directory to write per-experiment CSV files")
		report     = flag.String("report", "", "write a combined markdown report to this file")
		verify     = flag.Bool("verify", false, "check the paper's claims against the results")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		verbose    = flag.Bool("v", false, "per-cell progress on stderr")
		parallel   = flag.Int("parallel", 0, "measurement-cell workers: 0 = one per CPU, 1 = serial")
		timing     = flag.String("timing", "", "write per-experiment wall-clock timings to this JSON file")
		faultsLvl  = flag.String("faults", "none", "fault injection level for every experiment: none, light, heavy")
		faultSeed  = flag.Int64("fault-seed", 1, "seed for the fault-injection streams (same seed = byte-identical run)")
		checkInv   = flag.Bool("check", false, "arm the invariant-checking harness on every cell (fails on violations)")
		traceOut   = flag.String("trace", "", "write a Chrome trace_event JSON covering every cell to this file (open in chrome://tracing)")
		metricsJS  = flag.String("metrics", "", "write the metrics document to this JSON file, plus Prometheus text next to it (.prom)")
		fitness    = flag.Bool("fitness", false, "score the regenerated figures against the paper's published values; nonzero exit on drift")
		fitnessOut = flag.String("fitness-out", "results/fitness.json", "where -fitness writes its JSON verdict")
		replayFns  = flag.String("replay", "", "comma-separated function names: counterfactual prefetch-decision replay instead of experiments")
		replayK    = flag.Int("replay-k", 3, "alternative schedules to replay per function, beyond the recorded one")
		absintRep  = flag.Bool("absint-report", false, "print the abstract-interpretation report for the built-in eBPF programs and exit")
		storeTier  = flag.String("store", "", "snapshot tier for every experiment: local, warm, cold (empty = local SSD)")
		fetchPol   = flag.String("fetch-policy", "", "remote chunk fetch policy: demand, full, wslazy (empty = demand)")
		hostsN     = flag.Int("hosts", 0, "cluster experiment: region size in hosts (0 = default 4)")
		routerFl   = flag.String("router", "", "cluster experiment: comma-separated routing policies (roundrobin, leastloaded, affinity; empty = all)")
		keepalive  = flag.Int("keepalive", -1, "cluster experiment: warm sandboxes kept per host (-1 = default sweep 0,2)")
	)
	flag.Parse()
	if *parallel < 0 {
		fatal(fmt.Errorf("-parallel must be >= 0, got %d", *parallel))
	}
	if *absintRep {
		if err := writeAbsintReport(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Println(e.ID)
		}
		return
	}

	if *replayFns != "" {
		if err := runReplay(*replayFns, *replayK, *parallel); err != nil {
			fatal(err)
		}
		return
	}

	opts := experiments.Options{Parallel: *parallel, Check: *checkInv}
	if *hostsN != 0 || *routerFl != "" || *keepalive >= 0 {
		cp := &experiments.ClusterParams{Hosts: *hostsN}
		if *routerFl != "" {
			for _, s := range strings.Split(*routerFl, ",") {
				r, err := cluster.ParseRouter(strings.TrimSpace(s))
				if err != nil {
					fatal(err)
				}
				cp.Routers = append(cp.Routers, r)
			}
		}
		if *keepalive >= 0 {
			cp.Budgets = []int{*keepalive}
		}
		opts.Cluster = cp
	}
	switch *faultsLvl {
	case "none", "":
	case "light":
		plan := faults.Light(*faultSeed)
		opts.Faults = &plan
	case "heavy":
		plan := faults.Heavy(*faultSeed)
		opts.Faults = &plan
	default:
		fatal(fmt.Errorf("-faults must be none, light or heavy, got %q", *faultsLvl))
	}
	tier, err := store.ParseTier(*storeTier)
	if err != nil {
		fatal(err)
	}
	policy, err := store.ParsePolicy(*fetchPol)
	if err != nil {
		fatal(err)
	}
	if *fetchPol != "" && tier == store.TierLocal {
		fatal(fmt.Errorf("-fetch-policy requires -store warm or cold (local SSD has no remote to fetch from)"))
	}
	if tier != store.TierLocal {
		opts.Store = &store.Setup{Tier: tier, Policy: policy, Params: store.DefaultParams()}
	}
	if *verbose {
		opts.Progress = func(msg string) { fmt.Fprintln(os.Stderr, "  "+msg) }
	}
	// Observability: cells arrive at the sink in deterministic cell
	// order after each batch, so the collected sequence — and the
	// documents built from it — is identical for any -parallel width.
	var obsCells []obsCell
	var curExp string
	var cellSeq int
	if *traceOut != "" || *metricsJS != "" {
		opts.Obs = &obs.Config{Trace: *traceOut != "", Metrics: *metricsJS != ""}
		opts.ObsSink = func(i int, cell experiments.Cell, res *experiments.RunResult) {
			name := fmt.Sprintf("%s/%03d %s/%s/n%d", curExp, cellSeq, res.Scheme, res.Function, res.N)
			cellSeq++
			obsCells = append(obsCells, obsCell{name: name, rep: res.Obs})
		}
		opts.ObsSinkNamed = func(name string, rep *obs.Report) {
			full := fmt.Sprintf("%s/%03d %s", curExp, cellSeq, name)
			cellSeq++
			obsCells = append(obsCells, obsCell{name: full, rep: rep})
		}
	}
	if *fnFlag != "" {
		for _, name := range strings.Split(*fnFlag, ",") {
			fn, err := workload.ByName(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			opts.Functions = append(opts.Functions, fn)
		}
	}

	want := map[string]bool{}
	if *expFlag != "all" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
	}

	tables := make(map[string]*experiments.Table)
	var order []string
	var timings []expTiming
	suiteStart := time.Now()
	for _, e := range all {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		curExp, cellSeq = e.ID, 0
		start := time.Now()
		tbl, err := e.Run(opts)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		elapsed := time.Since(start)
		fmt.Println(tbl.Render())
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n\n", e.ID, elapsed.Round(time.Millisecond))
		if *csvDir != "" {
			path := filepath.Join(*csvDir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(tbl.CSV()), 0o644); err != nil {
				fatal(err)
			}
		}
		tables[e.ID] = tbl
		order = append(order, e.ID)
		timings = append(timings, expTiming{ID: e.ID, Seconds: elapsed.Seconds()})
	}
	if len(order) == 0 {
		fatal(fmt.Errorf("no experiments matched %q (use -list)", *expFlag))
	}
	total := time.Since(suiteStart)
	fmt.Fprintf(os.Stderr, "[total wall-clock %v, %d workers]\n", total.Round(time.Millisecond), workers(*parallel))
	if *timing != "" {
		if err := writeTiming(*timing, *parallel, timings, total, os.Stderr); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "timings written to", *timing)
	}
	if *traceOut != "" || *metricsJS != "" {
		reportTraceDrops(obsCells)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, obsCells); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "trace written to", *traceOut)
	}
	if *metricsJS != "" {
		promPath, err := writeMetrics(*metricsJS, obsCells)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics written to %s and %s\n", *metricsJS, promPath)
	}

	if *fitness {
		rep, err := calib.Evaluate(tables, calib.References(),
			calib.Options{AllowMissingRows: *fnFlag != ""})
		if err != nil {
			fatal(err)
		}
		fmt.Println(rep.VerdictTable().Render())
		if err := mkdirFor(*fitnessOut); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*fitnessOut, rep.JSON(), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "fitness verdicts written to", *fitnessOut)
		if !rep.Pass {
			fatal(fmt.Errorf("fitness: drift alarm: at least one figure exceeds its tolerance band (see %s)", *fitnessOut))
		}
	}

	if *verify {
		fmt.Println("== paper claim verification ==")
		for _, r := range paper.CheckAll(tables) {
			mark := "HOLDS "
			if !r.Holds {
				mark = "BROKEN"
			}
			fmt.Printf("[%s] %s\n        measured: %s\n", mark, r.Claim.Statement, r.Measured)
		}
		fmt.Println()
	}

	if *report != "" {
		if err := os.WriteFile(*report, []byte(renderReport(order, tables)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "report written to", *report)
	}
}

// runReplay replays each named function's recorded prefetch decisions
// against k alternative schedules (see internal/calib). The recorded
// schedule replayed through the override path must land on the
// recorded E2E exactly — a nonzero delta means the simulator lost
// determinism, and the run fails loudly.
func runReplay(fns string, k, parallel int) error {
	for _, name := range strings.Split(fns, ",") {
		fn, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		rep, err := calib.Replay(fn, calib.ReplayConfig{K: k, Parallel: parallel})
		if err != nil {
			return err
		}
		fmt.Println(rep.Table().Render())
		if d := rep.Alternatives[0].Delta; d != 0 {
			return fmt.Errorf("replay %s: recorded schedule replayed with delta %v (determinism violation)", fn.Name, d)
		}
	}
	return nil
}

// renderReport assembles a markdown report: every table plus the
// claim verdicts.
func renderReport(order []string, tables map[string]*experiments.Table) string {
	var sb strings.Builder
	sb.WriteString("# SnapBPF reproduction results\n\n")
	sb.WriteString("Generated by `snapbpf-bench -report`. All timings are virtual\n")
	sb.WriteString("(deterministic simulation); see DESIGN.md for the methodology.\n\n")
	sb.WriteString("## Paper claims\n\n")
	for _, r := range paper.CheckAll(tables) {
		mark := "✅"
		if !r.Holds {
			mark = "❌"
		}
		fmt.Fprintf(&sb, "- %s %s\n  - measured: %s\n", mark, r.Claim.Statement, r.Measured)
	}
	sb.WriteString("\n## Tables\n")
	for _, id := range order {
		fmt.Fprintf(&sb, "\n### %s\n\n```\n%s```\n", id, tables[id].Render())
	}
	return sb.String()
}

// expTiming is one experiment's wall-clock time in the timing report.
type expTiming struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
}

// timingReport is the -timing JSON document. GitState and Workers
// stamp where the numbers came from: rows measured under a different
// source tree or pool width are not comparable, so merging across
// differing stamps is refused.
type timingReport struct {
	GitState     string      `json:"git_state"`
	Workers      int         `json:"workers"`
	GOMAXPROCS   int         `json:"gomaxprocs"`
	TotalSeconds float64     `json:"total_seconds"`
	Experiments  []expTiming `json:"experiments"`
}

// workers resolves the -parallel flag the same way the pool does.
func workers(parallel int) int {
	if parallel > 0 {
		return parallel
	}
	return runtime.GOMAXPROCS(0)
}

// gitState describes the working tree as "<short-hash>" or
// "<short-hash>-dirty", or "unknown" outside a git checkout.
func gitState() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	state := strings.TrimSpace(string(out))
	if err := exec.Command("git", "diff", "--quiet", "HEAD").Run(); err != nil {
		state += "-dirty"
	}
	return state
}

// writeTiming writes the wall-clock timing report as indented JSON.
// When path already holds a report with the same git state and pool
// width, experiments not re-run this time are carried over, so a
// partial `-exp` run refreshes rows instead of clobbering the file;
// a stamp mismatch discards the old rows (merging timings measured on
// different code or configurations would silently mix regimes), with a
// note on diag.
func writeTiming(path string, parallel int, timings []expTiming, total time.Duration, diag io.Writer) error {
	doc := timingReport{
		GitState:     gitState(),
		Workers:      workers(parallel),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		TotalSeconds: total.Seconds(),
		Experiments:  timings,
	}
	if old, err := os.ReadFile(path); err == nil {
		var prev timingReport
		if json.Unmarshal(old, &prev) == nil {
			if prev.GitState == doc.GitState && prev.Workers == doc.Workers {
				ran := make(map[string]bool, len(timings))
				for _, t := range timings {
					ran[t.ID] = true
				}
				for _, t := range prev.Experiments {
					if !ran[t.ID] {
						doc.Experiments = append(doc.Experiments, t)
					}
				}
			} else if len(prev.Experiments) > 0 {
				fmt.Fprintf(diag,
					"timing: discarding stale rows from %s (stamp %s/%d workers != %s/%d workers)\n",
					path, prev.GitState, prev.Workers, doc.GitState, doc.Workers)
			}
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// obsCell is one collected cell's observability report.
type obsCell struct {
	name string
	rep  *obs.Report
}

// reportTraceDrops surfaces MaxTraceEvents truncation on stderr at
// export time: the drop counter is embedded in the metrics JSON, but a
// truncated trace read in chrome://tracing looks complete, so the loss
// must be loud.
func reportTraceDrops(cells []obsCell) {
	var dropped int64
	var affected []string
	for _, c := range cells {
		if c.rep == nil {
			continue
		}
		if d := c.rep.TraceDropped(); d > 0 {
			dropped += d
			affected = append(affected, fmt.Sprintf("%s (%d)", c.name, d))
		}
	}
	if dropped == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "trace: %d events dropped by the MaxTraceEvents cap in %d cells:\n", dropped, len(affected))
	for _, name := range affected {
		fmt.Fprintf(os.Stderr, "  %s\n", name)
	}
}

// writeTrace streams the combined Chrome trace document to path and
// self-checks the result. Streaming keeps peak memory at the writer's
// buffer instead of the whole document (a chaos trace runs to
// gigabytes), and the quick validator checks the envelope and JSON
// well-formedness without unmarshalling every event — the obs golden
// tests already pin the serializer's exact bytes.
func writeTrace(path string, cells []obsCell) error {
	tc := make([]obs.TraceCell, len(cells))
	for i, c := range cells {
		tc[i] = obs.TraceCell{Name: c.name, Report: c.rep}
	}
	if err := mkdirFor(path); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTrace(f, tc); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := obs.ValidateTraceQuick(data); err != nil {
		return fmt.Errorf("trace self-check: %w", err)
	}
	return nil
}

// writeMetrics renders the metrics JSON document to path and the
// aggregate snapshot as Prometheus text next to it, returning the
// Prometheus file's path.
func writeMetrics(path string, cells []obsCell) (string, error) {
	mc := make([]obs.MetricsCell, len(cells))
	reports := make([]*obs.Report, len(cells))
	for i, c := range cells {
		mc[i] = obs.MetricsCell{Name: c.name, Report: c.rep}
		reports[i] = c.rep
	}
	data, err := obs.BuildMetricsJSON(mc)
	if err != nil {
		return "", err
	}
	if err := mkdirFor(path); err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	promPath := strings.TrimSuffix(path, filepath.Ext(path)) + ".prom"
	if err := os.WriteFile(promPath, obs.MergeMetrics(reports).Prometheus(), 0o644); err != nil {
		return "", err
	}
	return promPath, nil
}

// mkdirFor creates the parent directory of path if needed.
func mkdirFor(path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		return os.MkdirAll(dir, 0o755)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snapbpf-bench:", err)
	os.Exit(1)
}
