package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// readTimingFile decodes a -timing report written by writeTiming.
func readTimingFile(t *testing.T, path string) timingReport {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc timingReport
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("timing file is not valid JSON: %v\n%s", err, data)
	}
	return doc
}

// writePrev seeds path with an existing timing report.
func writePrev(t *testing.T, path string, prev timingReport) {
	t.Helper()
	data, err := json.MarshalIndent(prev, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func timingRows(doc timingReport) map[string]float64 {
	rows := map[string]float64{}
	for _, e := range doc.Experiments {
		rows[e.ID] = e.Seconds
	}
	return rows
}

// A previous report with the same git state and pool width is
// a valid baseline: rows not re-run this time are carried over, rows
// that were re-run are replaced, and no diagnostic is emitted.
func TestWriteTimingCarriesOverMatchingStamp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "timing.json")
	writePrev(t, path, timingReport{
		GitState: gitState(),
		Workers:  workers(1),
		Experiments: []expTiming{
			{ID: "fig3a", Seconds: 10.0},
			{ID: "fig4", Seconds: 20.0},
		},
	})
	var diag strings.Builder
	err := writeTiming(path, 1,
		[]expTiming{{ID: "fig3a", Seconds: 1.5}}, 1500*time.Millisecond, &diag)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Len() != 0 {
		t.Errorf("matching stamp produced a diagnostic: %q", diag.String())
	}
	rows := timingRows(readTimingFile(t, path))
	if len(rows) != 2 {
		t.Fatalf("got rows %v, want fig3a refreshed + fig4 carried over", rows)
	}
	if rows["fig3a"] != 1.5 {
		t.Errorf("fig3a = %v, want the re-run value 1.5", rows["fig3a"])
	}
	if rows["fig4"] != 20.0 {
		t.Errorf("fig4 = %v, want the carried-over value 20.0", rows["fig4"])
	}
}

// Rows stamped by a different source tree or pool width are
// not comparable with this run's: they must be discarded, with a note
// on the diagnostic writer saying so.
func TestWriteTimingRejectsMismatchedStamp(t *testing.T) {
	for _, c := range []struct {
		name string
		prev timingReport
	}{
		{"git state", timingReport{GitState: "0000000-elsewhere", Workers: workers(1)}},
		{"workers", timingReport{GitState: gitState(), Workers: workers(1) + 7}},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "timing.json")
			prev := c.prev
			prev.Experiments = []expTiming{{ID: "fig4", Seconds: 20.0}}
			writePrev(t, path, prev)
			var diag strings.Builder
			err := writeTiming(path, 1,
				[]expTiming{{ID: "fig3a", Seconds: 1.5}}, 1500*time.Millisecond, &diag)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(diag.String(), "discarding stale rows") {
				t.Errorf("no stale-rows note on diag, got: %q", diag.String())
			}
			rows := timingRows(readTimingFile(t, path))
			if len(rows) != 1 || rows["fig3a"] != 1.5 {
				t.Errorf("got rows %v, want only the fresh fig3a row", rows)
			}
		})
	}
}

// An unreadable or corrupt previous file is simply overwritten —
// quietly, since there are no measured rows to lose.
func TestWriteTimingOverwritesCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "timing.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var diag strings.Builder
	err := writeTiming(path, 1,
		[]expTiming{{ID: "fig3a", Seconds: 1.5}}, 1500*time.Millisecond, &diag)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Len() != 0 {
		t.Errorf("corrupt file produced a diagnostic: %q", diag.String())
	}
	doc := readTimingFile(t, path)
	if rows := timingRows(doc); len(rows) != 1 || rows["fig3a"] != 1.5 {
		t.Errorf("got rows %v, want only the fresh fig3a row", rows)
	}
	if doc.TotalSeconds != 1.5 {
		t.Errorf("total_seconds = %v, want 1.5", doc.TotalSeconds)
	}
	if doc.Workers != workers(1) {
		t.Errorf("stamp = %d workers, want %d", doc.Workers, workers(1))
	}
}

// A stale previous report with no rows is replaced without the note —
// there is nothing being discarded.
func TestWriteTimingEmptyPrevNoNote(t *testing.T) {
	path := filepath.Join(t.TempDir(), "timing.json")
	writePrev(t, path, timingReport{GitState: "0000000-elsewhere", Workers: workers(1)})
	var diag strings.Builder
	err := writeTiming(path, 1,
		[]expTiming{{ID: "fig3a", Seconds: 1.5}}, 1500*time.Millisecond, &diag)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Len() != 0 {
		t.Errorf("empty stale report produced a diagnostic: %q", diag.String())
	}
}
