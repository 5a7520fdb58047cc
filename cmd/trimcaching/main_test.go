package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trimcaching/internal/experiments"
)

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"list"}, &out); err != nil {
		t.Fatal(err)
	}
	want := []string{"usage", "-chart"}
	for _, r := range experiments.All() {
		want = append(want, r.Name)
	}
	for _, w := range want {
		if !strings.Contains(out.String(), w) {
			t.Fatalf("list output missing %q:\n%s", w, out.String())
		}
	}
}

func TestRunMissingCommand(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("missing command must error")
	}
	if !strings.Contains(out.String(), "usage") {
		t.Fatal("usage not printed")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"fig99"}, &out); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"fig6a", "-topologies", "x"}, &out); err == nil {
		t.Fatal("bad flag must error")
	}
}

func TestRunFig6aTiny(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"fig6a", "-topologies", "2", "-realizations", "10", "-pool", "10"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig. 6(a)", "TrimCaching Gen", "Optimal (exhaustive)", "faster than"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunChartFlag(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"fig1", "-chart", "-topologies", "2", "-realizations", "10"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "x: frozen layers") {
		t.Fatalf("chart missing:\n%s", out.String())
	}
}

func TestRunOutFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.txt")
	var out bytes.Buffer
	err := run([]string{"fig1", "-out", path, "-topologies", "2", "-realizations", "10"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Fig. 1") {
		t.Fatalf("output file missing results: %s", data)
	}
}
