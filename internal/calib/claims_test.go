package calib

import (
	"strings"
	"testing"

	"snapbpf/internal/experiments"
)

func tableWith(id string, cols []string, rows ...[]string) *experiments.Table {
	t := &experiments.Table{ID: id, Columns: cols}
	for _, r := range rows {
		t.AddRow(r...)
	}
	return t
}

func claimFor(t *testing.T, id, substr string) Claim {
	t.Helper()
	for _, c := range Claims() {
		if c.ExperimentID == id && strings.Contains(c.Statement, substr) {
			return c
		}
	}
	t.Fatalf("no claim for %s containing %q", id, substr)
	return Claim{}
}

func TestTable1Claim(t *testing.T) {
	c := claimFor(t, "table1", "only scheme")
	good := tableWith("table1",
		[]string{"Scheme", "Mechanism", "OnDisk", "Dedup", "Filter"},
		[]string{"REAP", "uffd", "Yes", "No", "No"},
		[]string{"Faast", "uffd", "Yes", "No", "No"},
		[]string{"FaaSnap", "mincore", "Yes", "Yes", "No"},
		[]string{"SnapBPF", "eBPF", "No", "Yes", "Yes"},
	)
	if _, ok := c.Check(good); !ok {
		t.Fatal("correct table rejected")
	}
	bad := tableWith("table1",
		[]string{"Scheme", "Mechanism", "OnDisk", "Dedup", "Filter"},
		[]string{"REAP", "uffd", "Yes", "No", "Yes"}, // REAP filtering: wrong
		[]string{"Faast", "uffd", "Yes", "No", "No"},
		[]string{"FaaSnap", "mincore", "Yes", "Yes", "No"},
		[]string{"SnapBPF", "eBPF", "No", "Yes", "Yes"},
	)
	if _, ok := c.Check(bad); ok {
		t.Fatal("wrong table accepted")
	}
}

func TestFig3bClaimBands(t *testing.T) {
	c := claimFor(t, "fig3b", "8x")
	mk := func(ratio string) *experiments.Table {
		return tableWith("fig3b",
			[]string{"Function", "Linux-NoRA", "Linux-RA", "REAP", "SnapBPF", "REAP/SnapBPF"},
			[]string{"bert", "20", "3", "16", "2", ratio})
	}
	if _, ok := c.Check(mk("8.0x")); !ok {
		t.Fatal("8x rejected")
	}
	if _, ok := c.Check(mk("1.2x")); ok {
		t.Fatal("1.2x accepted")
	}
	if _, ok := c.Check(mk("50x")); ok {
		t.Fatal("50x accepted (implausibly large)")
	}
}

func TestFig4ImageClaim(t *testing.T) {
	c := claimFor(t, "fig4", "image")
	mk := func(pv string) *experiments.Table {
		return tableWith("fig4",
			[]string{"Function", "Linux-RA", "PVPTEs", "SnapBPF"},
			[]string{"image", "1.00", pv, "0.35"})
	}
	if _, ok := c.Check(mk("0.42")); !ok {
		t.Fatal("2.4x improvement rejected")
	}
	if _, ok := c.Check(mk("0.95")); ok {
		t.Fatal("no-improvement accepted")
	}
	// Restricted suite: vacuously true.
	empty := tableWith("fig4", []string{"Function", "Linux-RA", "PVPTEs", "SnapBPF"})
	if _, ok := c.Check(empty); !ok {
		t.Fatal("restricted suite should be vacuous")
	}
}

func TestOverheadsClaim(t *testing.T) {
	c := claimFor(t, "overheads", "<1%")
	good := tableWith("overheads",
		[]string{"Function", "WS groups", "Load (ms)", "E2E (s)", "Load/E2E"},
		[]string{"json", "160", "0.14", "0.1", "0.14%"},
		[]string{"bert", "3000", "2.8", "1.7", "0.16%"})
	if m, ok := c.Check(good); !ok {
		t.Fatalf("good overheads rejected: %s", m)
	}
	bad := tableWith("overheads",
		[]string{"Function", "WS groups", "Load (ms)", "E2E (s)", "Load/E2E"},
		[]string{"json", "160", "9", "0.1", "9.0%"})
	if _, ok := c.Check(bad); ok {
		t.Fatal("9% overhead accepted")
	}
}

func TestFig3aClaim(t *testing.T) {
	c := claimFor(t, "fig3a", "matches")
	good := tableWith("fig3a",
		[]string{"Function", "REAP", "FaaSnap", "SnapBPF", "SnapBPF (s)"},
		[]string{"json", "1.20", "1.05", "1.00", "0.1"},
		[]string{"bert", "1.50", "1.10", "1.00", "1.7"})
	if m, ok := c.Check(good); !ok {
		t.Fatalf("good fig3a rejected: %s", m)
	}
	bad := tableWith("fig3a",
		[]string{"Function", "REAP", "FaaSnap", "SnapBPF", "SnapBPF (s)"},
		[]string{"json", "0.60", "0.70", "1.00", "0.1"})
	if _, ok := c.Check(bad); ok {
		t.Fatal("SnapBPF-losing fig3a accepted")
	}
}

func TestFig3cClaim(t *testing.T) {
	c := claimFor(t, "fig3c", "6x")
	mk := func(r1, r2 string) *experiments.Table {
		return tableWith("fig3c",
			[]string{"Function", "Linux-NoRA", "Linux-RA", "REAP", "SnapBPF", "REAP/SnapBPF"},
			[]string{"bfs", "1", "1", "4", "1", r1},
			[]string{"bert", "1", "1", "8", "1.3", r2})
	}
	if _, ok := c.Check(mk("5.9x", "6.3x")); !ok {
		t.Fatal("~6x rejected")
	}
	if _, ok := c.Check(mk("1.1x", "1.3x")); ok {
		t.Fatal("no-dedup accepted")
	}
}

func TestFig4MinimalClaim(t *testing.T) {
	c := claimFor(t, "fig4", "minimally")
	good := tableWith("fig4",
		[]string{"Function", "Linux-RA", "PVPTEs", "SnapBPF"},
		[]string{"rnn", "1.00", "0.97", "0.51"},
		[]string{"bert", "1.00", "0.95", "0.55"})
	if m, ok := c.Check(good); !ok {
		t.Fatalf("minimal-PV rejected: %s", m)
	}
	bad := tableWith("fig4",
		[]string{"Function", "Linux-RA", "PVPTEs", "SnapBPF"},
		[]string{"rnn", "1.00", "0.40", "0.35"})
	if _, ok := c.Check(bad); ok {
		t.Fatal("rnn with huge PV benefit accepted")
	}
}

func TestCheckAllRunsEveryPresentClaim(t *testing.T) {
	tables := map[string]*experiments.Table{
		"fig3a": tableWith("fig3a",
			[]string{"Function", "REAP", "FaaSnap", "SnapBPF", "SnapBPF (s)"},
			[]string{"json", "1.2", "1.1", "1.00", "0.1"}),
		"fig4": tableWith("fig4",
			[]string{"Function", "Linux-RA", "PVPTEs", "SnapBPF"},
			[]string{"image", "1.00", "0.42", "0.33"}),
	}
	res := CheckClaims(tables)
	// fig3a has one claim; fig4 has two.
	if len(res) != 3 {
		t.Fatalf("results = %d, want 3", len(res))
	}
	for _, r := range res {
		if !r.Holds {
			t.Fatalf("claim unexpectedly broken: %s (%s)", r.Statement, r.Measured)
		}
	}
}

func TestCheckAllSkipsMissingTables(t *testing.T) {
	res := CheckClaims(map[string]*experiments.Table{})
	if len(res) != 0 {
		t.Fatalf("results for no tables: %v", res)
	}
}

func TestClaimsCoverHeadlineExperiments(t *testing.T) {
	covered := map[string]bool{}
	for _, c := range Claims() {
		covered[c.ExperimentID] = true
	}
	for _, want := range []string{"table1", "fig3a", "fig3b", "fig3c", "fig4", "overheads"} {
		if !covered[want] {
			t.Fatalf("no claim for %s", want)
		}
	}
}

// TestEvaluateGatesClaims: the claims are a scorer of Evaluate, so a
// broken claim fails the report even with no reference figure, the
// verdicts travel in the JSON and the claim table, and a table missing
// the columns a claim reads fails that claim instead of panicking.
func TestEvaluateGatesClaims(t *testing.T) {
	cols := []string{"Function", "REAP", "FaaSnap", "SnapBPF", "SnapBPF (s)"}
	for _, c := range []struct {
		tbl  *experiments.Table
		pass bool
	}{
		{tableWith("fig3a", cols, []string{"json", "1.20", "1.05", "1.00", "0.1"}), true},
		{tableWith("fig3a", cols, []string{"json", "0.60", "1.05", "1.00", "0.1"}), false},
		{tableWith("fig3a", []string{"Function"}, []string{"json"}), false},
	} {
		rep, err := Evaluate(map[string]*experiments.Table{"fig3a": c.tbl}, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Pass != c.pass || len(rep.Claims) != 1 {
			t.Fatalf("%v: pass = %v, claims %+v", c.tbl.Rows, rep.Pass, rep.Claims)
		}
		if !c.pass && (!strings.Contains(string(rep.JSON()), `"holds": false`) ||
			!strings.Contains(rep.ClaimTable().Render(), "BROKEN")) {
			t.Errorf("broken claim missing from JSON or table:\n%s", rep.JSON())
		}
	}
	if _, err := Evaluate(map[string]*experiments.Table{"other": {}}, nil, Options{}); err == nil {
		t.Error("no figure and no claim scored: want error")
	}
}
