package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"trimcaching/internal/stats"
)

// figuresArtifact is the checked-in record of the paper's own results:
// every registered experiment's non-timing series at one set of options.
type figuresArtifact struct {
	Options Options        `json:"options"`
	Figures []figureRecord `json:"figures"`
}

// figureRecord is one experiment's series, timing series left out.
type figureRecord struct {
	Name   string         `json:"name"`
	Series []stats.Series `json:"series"`
}

// runFigures runs every registered experiment at opt and keeps the series
// that do not measure wall-clock time.
func runFigures(t *testing.T, opt Options) []figureRecord {
	t.Helper()
	var recs []figureRecord
	for _, r := range All() {
		tbl, err := r.Run(opt)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		rec := figureRecord{Name: r.Name, Series: []stats.Series{}}
		for _, s := range tbl.Series {
			if !s.Timing {
				rec.Series = append(rec.Series, s)
			}
		}
		recs = append(recs, rec)
	}
	return recs
}

func marshalFigures(t *testing.T, art figuresArtifact) []byte {
	t.Helper()
	b, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestFigureGoldens pins every figure and ablation of the paper's
// evaluation to the last bit: the non-timing series of all registered
// experiments at tinyOptions, byte-compared against the checked-in golden.
// A second run at one worker must reproduce the same bytes, so the pin
// also covers run-to-run determinism and independence from the trial
// schedule. Refresh with
// UPDATE_GOLDENS=1 go test ./internal/experiments -run TestFigureGoldens.
func TestFigureGoldens(t *testing.T) {
	opt := tinyOptions()
	got := marshalFigures(t, figuresArtifact{Options: opt, Figures: runFigures(t, opt)})
	path := filepath.Join("testdata", "figures.golden.json")
	if os.Getenv("UPDATE_GOLDENS") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with UPDATE_GOLDENS=1): %v", err)
	}
	assertFiguresEqual(t, "default workers", got, want)

	serial := opt
	serial.Workers = 1
	again := marshalFigures(t, figuresArtifact{Options: opt, Figures: runFigures(t, serial)})
	assertFiguresEqual(t, "one worker", again, want)
}

// assertFiguresEqual fails with the names of the drifting experiments
// when got and want differ.
func assertFiguresEqual(t *testing.T, leg string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	var g, w figuresArtifact
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatalf("golden does not parse: %v", err)
	}
	if len(g.Figures) != len(w.Figures) {
		t.Fatalf("%s: %d experiments, golden has %d", leg, len(g.Figures), len(w.Figures))
	}
	for x := range g.Figures {
		gb, _ := json.Marshal(g.Figures[x])
		wb, _ := json.Marshal(w.Figures[x])
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s: golden drift in %s\n--- got ---\n%s\n--- want ---\n%s", leg, g.Figures[x].Name, gb, wb)
		}
	}
	t.Fatalf("%s: figures differ from the golden", leg)
}
