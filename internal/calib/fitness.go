package calib

import (
	"encoding/json"
	"fmt"
	"strconv"

	"snapbpf/internal/experiments"
)

// Options controls Evaluate.
type Options struct {
	// AllowMissingRows skips reference rows absent from the simulated
	// table instead of failing the figure. Set when the run restricted
	// the function set (-funcs); never set in the CI drift alarm, which
	// runs the full suite.
	AllowMissingRows bool
}

// FigureFitness is the verdict for one figure.
type FigureFitness struct {
	Figure string `json:"figure"`
	// Rows is the number of reference rows matched against the table;
	// Pairs the number of (row, column) cells compared.
	Rows  int `json:"rows"`
	Pairs int `json:"pairs"`
	// MissingRows counts reference rows absent from the table (only
	// nonzero under Options.AllowMissingRows).
	MissingRows int `json:"missing_rows,omitempty"`
	// MAPE skips pairs with a zero reference; MAPEPairs is what
	// remained. MAPEDegenerate marks an all-zero reference (MAPE
	// undefined, judged on Pearson alone).
	MAPE           float64 `json:"mape"`
	MAPEPairs      int     `json:"mape_pairs"`
	MAPEDegenerate bool    `json:"mape_degenerate,omitempty"`
	MAPETol        float64 `json:"mape_tol"`
	// Pearson is r over all compared pairs; PearsonDegenerate marks a
	// zero-variance or single-pair series (r undefined, judged on MAPE
	// alone).
	Pearson           float64 `json:"pearson"`
	PearsonDegenerate bool    `json:"pearson_degenerate,omitempty"`
	PearsonMin        float64 `json:"pearson_min"`
	Pass              bool    `json:"pass"`
	// Err explains a structural failure (missing column/rows); when
	// set, Pass is false and the stats fields are zero.
	Err string `json:"error,omitempty"`
}

// Report is the full fitness verdict, serialised to results/fitness.json.
type Report struct {
	Pass    bool            `json:"pass"`
	Figures []FigureFitness `json:"figures"`
	Claims  []ClaimVerdict  `json:"claims,omitempty"`
}

// Evaluate runs both scorers over the regenerated tables: each table
// against its reference figure, then the paper's claims (Claims). The
// report passes only if every figure is within its band and every
// claim holds. Figures and claims with no table in the run are skipped
// (the run chose a subset of experiments); scoring nothing at all is an
// error. Figure pairing is by (row key, column name), so row order and
// column order of the table cannot affect the result.
func Evaluate(tables map[string]*experiments.Table, refs []RefFigure, opts Options) (*Report, error) {
	rep := &Report{Pass: true, Claims: CheckClaims(tables)}
	for _, ref := range refs {
		tbl := tables[ref.ID]
		if tbl == nil {
			continue
		}
		rep.Figures = append(rep.Figures, evalFigure(tbl, ref, opts))
	}
	if len(rep.Figures) == 0 && len(rep.Claims) == 0 {
		return nil, fmt.Errorf("calib: no reference figure or claim matches the run's tables")
	}
	for _, f := range rep.Figures {
		if !f.Pass {
			rep.Pass = false
		}
	}
	for _, c := range rep.Claims {
		if !c.Holds {
			rep.Pass = false
		}
	}
	return rep, nil
}

func evalFigure(tbl *experiments.Table, ref RefFigure, opts Options) FigureFitness {
	ff := FigureFitness{
		Figure:     ref.ID,
		MAPETol:    ref.MAPETol,
		PearsonMin: ref.PearsonMin,
	}
	failf := func(format string, args ...any) FigureFitness {
		ff.Err = fmt.Sprintf(format, args...)
		return ff
	}

	// Map reference columns to table column indices by name.
	colIdx := make([]int, len(ref.Columns))
	for i, want := range ref.Columns {
		colIdx[i] = -1
		for j, have := range tbl.Columns {
			if have == want {
				colIdx[i] = j
				break
			}
		}
		if colIdx[i] < 0 {
			return failf("table %s has no column %q", tbl.ID, want)
		}
	}

	var refVals, simVals []float64
	for _, row := range ref.Rows {
		var cells []string
		for _, r := range tbl.Rows {
			if len(r) > 0 && r[0] == row.Key {
				cells = r
				break
			}
		}
		if cells == nil {
			if opts.AllowMissingRows {
				ff.MissingRows++
				continue
			}
			return failf("table %s has no row %q", tbl.ID, row.Key)
		}
		ff.Rows++
		for i, ci := range colIdx {
			if ci >= len(cells) {
				return failf("table %s row %q is short of column %q", tbl.ID, row.Key, ref.Columns[i])
			}
			v, err := ParseValue(cells[ci])
			if err != nil {
				return failf("table %s row %q column %q: %v", tbl.ID, row.Key, ref.Columns[i], err)
			}
			refVals = append(refVals, row.Vals[i])
			simVals = append(simVals, v)
		}
	}
	if len(refVals) == 0 {
		return failf("table %s shares no rows with the reference", tbl.ID)
	}
	ff.Pairs = len(refVals)

	mape, used, err := MAPE(refVals, simVals)
	if err != nil {
		// Only reachable when every reference value is zero: MAPE is
		// undefined there, not failing.
		ff.MAPEDegenerate = true
	} else {
		ff.MAPE, ff.MAPEPairs = mape, used
	}
	r, err := Pearson(refVals, simVals)
	if err != nil {
		ff.PearsonDegenerate = true
	} else {
		ff.Pearson = r
	}
	if ff.MAPEDegenerate && ff.PearsonDegenerate {
		return failf("table %s: both MAPE and Pearson are degenerate", tbl.ID)
	}
	ff.Pass = (ff.MAPEDegenerate || ff.MAPE <= ff.MAPETol) &&
		(ff.PearsonDegenerate || ff.Pearson >= ff.PearsonMin)
	return ff
}

// JSON renders the report as stable, indented JSON with a trailing
// newline, suitable for byte comparison across runs.
func (r *Report) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic("calib: fitness report marshal: " + err.Error())
	}
	return append(b, '\n')
}

// VerdictTable renders the report as a human-readable table using the
// experiment table formatter.
func (r *Report) VerdictTable() *experiments.Table {
	t := &experiments.Table{
		ID:      "fitness",
		Title:   "Simulated figures vs the paper's published values",
		Note:    "MAPE over nonzero-reference pairs; Pearson r over all pairs; see DESIGN.md §12",
		Columns: []string{"Figure", "rows", "pairs", "MAPE", "tol", "Pearson r", "min r", "verdict"},
	}
	f4 := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
	for _, f := range r.Figures {
		mape, pear := f4(f.MAPE), f4(f.Pearson)
		if f.MAPEDegenerate {
			mape = "n/a"
		}
		if f.PearsonDegenerate {
			pear = "n/a"
		}
		verdict := "ok"
		if !f.Pass {
			verdict = "FAIL"
			if f.Err != "" {
				verdict = "FAIL: " + f.Err
			}
		}
		t.AddRow(f.Figure, strconv.Itoa(f.Rows), strconv.Itoa(f.Pairs),
			mape, f4(f.MAPETol), pear, f4(f.PearsonMin), verdict)
	}
	return t
}
