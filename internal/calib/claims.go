package calib

import (
	"fmt"
	"strings"

	"snapbpf/internal/experiments"
)

// Claim is one checkable statement from the paper's §4 text — the
// second scorer next to the figure comparison. The reproduction targets
// shapes (who wins, by roughly what factor), so each claim is a band
// taken straight from the paper's text and figures.
type Claim struct {
	// ExperimentID names the table the claim is checked against.
	ExperimentID string
	// Statement quotes or paraphrases the paper.
	Statement string
	// Check inspects the regenerated table and returns the measured
	// value plus whether the claim's band holds.
	Check func(t *experiments.Table) (measured string, ok bool)
}

// ClaimVerdict is a checked claim.
type ClaimVerdict struct {
	Experiment string `json:"experiment"`
	Statement  string `json:"statement"`
	Measured   string `json:"measured"`
	Holds      bool   `json:"holds"`
}

// column returns the index of the named column.
func column(t *experiments.Table, name string) (int, error) {
	for i, c := range t.Columns {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("no column %q", name)
}

// row returns the row whose first cell equals name, or nil.
func row(t *experiments.Table, name string) []string {
	for _, r := range t.Rows {
		if len(r) > 0 && r[0] == name {
			return r
		}
	}
	return nil
}

// cellValue parses the named column of row r.
func cellValue(t *experiments.Table, r []string, col string) (float64, error) {
	i, err := column(t, col)
	if err != nil {
		return 0, err
	}
	if i >= len(r) {
		return 0, fmt.Errorf("row %q is short of column %q", r[0], col)
	}
	return ParseValue(r[i])
}

// colStats returns the mean and maximum of a column's numeric cells,
// skipping cells that do not parse.
func colStats(t *experiments.Table, col string) (mean, hi float64, err error) {
	i, err := column(t, col)
	if err != nil {
		return 0, 0, err
	}
	var sum float64
	var n int
	for _, r := range t.Rows {
		if i >= len(r) {
			continue
		}
		v, err := ParseValue(r[i])
		if err != nil {
			continue
		}
		if n == 0 || v > hi {
			hi = v
		}
		sum += v
		n++
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("no numeric cells in column %q", col)
	}
	return sum / float64(n), hi, nil
}

// Claims returns every claim in paper order.
func Claims() []Claim {
	return []Claim{
		{
			ExperimentID: "table1",
			Statement:    "Table 1: SnapBPF is the only scheme with no on-disk WS serialization, with in-memory dedup AND stateless allocation filtering",
			Check: func(t *experiments.Table) (string, bool) {
				r := row(t, "SnapBPF")
				if len(r) < 5 {
					return "no SnapBPF row", false
				}
				ok := r[2] == "No" && r[3] == "Yes" && r[4] == "Yes"
				for _, other := range []string{"REAP", "Faast", "FaaSnap"} {
					o := row(t, other)
					if len(o) < 5 {
						return "missing " + other, false
					}
					if o[2] == "No" || o[4] == "Yes" {
						ok = false
					}
				}
				return fmt.Sprintf("SnapBPF row = %v", r[2:]), ok
			},
		},
		{
			ExperimentID: "fig3a",
			Statement:    "§4 Latency: SnapBPF 'matches and in some cases outperforms' FaaSnap and outperforms REAP for a single instance",
			Check: func(t *experiments.Table) (string, bool) {
				reap, _, err1 := colStats(t, "REAP")
				fs, _, err2 := colStats(t, "FaaSnap")
				if err1 != nil || err2 != nil {
					return "unparseable", false
				}
				// Normalized to SnapBPF: both means >= ~1.
				return fmt.Sprintf("mean REAP=%.2fx, FaaSnap=%.2fx of SnapBPF", reap, fs),
					reap >= 1.0 && fs >= 0.95
			},
		},
		{
			ExperimentID: "fig3b",
			Statement:    "§4 Latency: for large working sets (bert), SnapBPF achieves ~8x lower E2E latency than REAP at 10 concurrent instances",
			Check: func(t *experiments.Table) (string, bool) {
				r := row(t, "bert")
				if r == nil {
					// Restricted suite: fall back to the best ratio.
					_, v, err := colStats(t, "REAP/SnapBPF")
					if err != nil {
						return "no bert row", false
					}
					return fmt.Sprintf("max REAP/SnapBPF=%.1fx (bert not in suite)", v), v >= 4
				}
				v, err := cellValue(t, r, "REAP/SnapBPF")
				if err != nil {
					return "unparseable", false
				}
				return fmt.Sprintf("bert REAP/SnapBPF = %.1fx", v), v >= 5 && v <= 14
			},
		},
		{
			ExperimentID: "fig3c",
			Statement:    "§4 Memory: SnapBPF reduces memory usage by up to 6x for large-WS functions (bfs, bert) at 10 concurrent instances",
			Check: func(t *experiments.Table) (string, bool) {
				_, v, err := colStats(t, "REAP/SnapBPF")
				if err != nil {
					return "unparseable", false
				}
				return fmt.Sprintf("max memory reduction = %.1fx", v), v >= 4 && v <= 9
			},
		},
		{
			ExperimentID: "fig4",
			Statement:    "§4 Breakdown: PV PTE marking alone improves allocation-heavy functions (image) by more than 2x over Linux-RA",
			Check: func(t *experiments.Table) (string, bool) {
				r := row(t, "image")
				if r == nil {
					return "image not in suite", true // vacuous on restricted suites
				}
				v, err := cellValue(t, r, "PVPTEs")
				if err != nil {
					return "unparseable", false
				}
				return fmt.Sprintf("image PVPTEs = %.2f of Linux-RA", v), v <= 0.5
			},
		},
		{
			ExperimentID: "fig4",
			Statement:    "§4 Breakdown: model-serving functions (rnn, bert) benefit only minimally from PV PTE marking",
			Check: func(t *experiments.Table) (string, bool) {
				var out []string
				ok := true
				for _, name := range []string{"rnn", "bert"} {
					r := row(t, name)
					if r == nil {
						continue
					}
					v, err := cellValue(t, r, "PVPTEs")
					if err != nil {
						return "unparseable", false
					}
					out = append(out, fmt.Sprintf("%s=%.2f", name, v))
					if v < 0.80 {
						ok = false
					}
				}
				if len(out) == 0 {
					return "rnn/bert not in suite", true
				}
				return strings.Join(out, " "), ok
			},
		},
		{
			ExperimentID: "overheads",
			Statement:    "§4 Overheads: loading the offsets into the kernel via the eBPF map is <1% of E2E latency on average (~1-2ms)",
			Check: func(t *experiments.Table) (string, bool) {
				pct, _, err1 := colStats(t, "Load/E2E")
				ms, _, err2 := colStats(t, "Load (ms)")
				if err1 != nil || err2 != nil {
					return "unparseable", false
				}
				return fmt.Sprintf("mean load = %.3fms, %.2f%% of E2E", ms, pct), pct < 1.0
			},
		},
	}
}

// CheckClaims runs every claim whose experiment is present in tables
// (keyed by experiment ID), in paper order.
func CheckClaims(tables map[string]*experiments.Table) []ClaimVerdict {
	var out []ClaimVerdict
	for _, c := range Claims() {
		t, ok := tables[c.ExperimentID]
		if !ok {
			continue
		}
		measured, holds := c.Check(t)
		out = append(out, ClaimVerdict{Experiment: c.ExperimentID, Statement: c.Statement,
			Measured: measured, Holds: holds})
	}
	return out
}

// ClaimTable renders the report's claim verdicts.
func (r *Report) ClaimTable() *experiments.Table {
	t := &experiments.Table{
		ID:      "claims",
		Title:   "The paper's §4 claims vs the regenerated tables",
		Columns: []string{"Experiment", "verdict", "measured", "claim"},
	}
	for _, c := range r.Claims {
		verdict := "holds"
		if !c.Holds {
			verdict = "BROKEN"
		}
		t.AddRow(c.Experiment, verdict, c.Measured, c.Statement)
	}
	return t
}
