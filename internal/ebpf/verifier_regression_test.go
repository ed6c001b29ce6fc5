package ebpf

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestVerifierRegression pins the two-tier verifier against the
// structural seed verifier over a broad program corpus: hand-written
// programs from the test suites, the committed FuzzVerifier corpus,
// and a spread of generator output. The verdict may only move in one
// direction — anything the structural pass accepts, Verify accepts,
// and anything newly accepted (structural reject, analysis accept)
// must load and run before the upgrade counts.
func TestVerifierRegression(t *testing.T) {
	corpus := regressionCorpus(t)
	if len(corpus) < 50 {
		t.Fatalf("regression corpus too small: %d programs", len(corpus))
	}

	vm := NewVM()
	m := MustNewMap(MapTypeHash, "fuzz", 1024)
	vm.RegisterMap(m)

	var accepted, upgraded int
	for i, insns := range corpus {
		sErr := verifyStructural(insns, vm)
		vErr := Verify(insns, vm)
		if sErr == nil {
			accepted++
			if vErr != nil {
				t.Fatalf("program %d: verdict regressed: structural accepts, Verify rejects: %v\n%s",
					i, vErr, Disassemble(insns))
			}
			continue
		}
		if vErr != nil {
			// Both reject; the surfaced error must be structural.
			if vErr.Error() != sErr.Error() {
				t.Fatalf("program %d: rejection error drifted: %v != %v", i, vErr, sErr)
			}
			continue
		}
		// Upgrade: the analysis proved what the structural pass could
		// not. Gate it on a clean run.
		upgraded++
		assertUpgradeRuns(t, insns)
	}
	if accepted == 0 {
		t.Fatal("corpus exercised no structurally-accepted programs")
	}
	if upgraded == 0 {
		t.Fatal("corpus exercised no verdict upgrades")
	}
	t.Logf("regression: %d programs, %d structural accepts, %d upgrades", len(corpus), accepted, upgraded)
}

// assertUpgradeRuns loads a newly-accepted program and runs it. The
// analysis proved every access safe, so the only run-time error left
// is the dynamic instruction budget, and not even that when the
// analysis bounded the worst case.
func assertUpgradeRuns(t *testing.T, insns []Instruction) {
	t.Helper()
	vm := NewVM()
	vm.RegisterMap(MustNewMap(MapTypeHash, "fuzz", 1024))
	p, err := vm.Load("regress", insns)
	if err != nil {
		t.Fatalf("Verify accepted but Load failed: %v\n%s", err, Disassemble(insns))
	}
	if _, err := p.Run(nil, 1, 2); err != nil {
		if vm.Analyze(insns).WorstCase >= 0 || !strings.Contains(err.Error(), "instruction budget") {
			t.Fatalf("upgraded program failed at run time: %v\n%s", err, Disassemble(insns))
		}
	}
}

// regressionCorpus assembles the program set: suite programs, the
// committed FuzzVerifier seed corpus, and 400 generator programs.
func regressionCorpus(t *testing.T) [][]Instruction {
	t.Helper()
	corpus := [][]Instruction{
		benchProgram(),
		mapHelperProgram(0),
		evictionScanProgram(),
		deadRegionProgram(),
		{
			{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 0},
			{Op: ClassJMP | OpExit},
		},
	}
	corpus = append(corpus, fuzzCorpusPrograms(t, "testdata/fuzz/FuzzVerifier")...)
	rng := rand.New(rand.NewSource(2024))
	for i := 0; i < 400; i++ {
		corpus = append(corpus, randomProgram(rng, 0))
	}
	return corpus
}

// fuzzCorpusPrograms decodes the committed go-fuzz corpus files
// (format: "go test fuzz v1" followed by one []byte literal).
func fuzzCorpusPrograms(t *testing.T, dir string) [][]Instruction {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]Instruction
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		for _, line := range lines {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "[]byte(") || !strings.HasSuffix(line, ")") {
				continue
			}
			lit, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
			if err != nil {
				t.Fatalf("%s: bad corpus literal: %v", f, err)
			}
			insns, err := UnmarshalInstructions([]byte(lit))
			if err != nil {
				continue
			}
			out = append(out, insns)
		}
	}
	return out
}
