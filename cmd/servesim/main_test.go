package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trimcaching/internal/experiments"
)

func TestRunGenerateAndServe(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-alg", "gen", "-servers", "5", "-users", "10", "-models", "10",
		"-rate", "20", "-duration", "600"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"TrimCaching Gen", "QoS hit ratio", "latency", "peak concurrency"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunSaveAndReplayTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	var out bytes.Buffer
	err := run([]string{"-alg", "popularity", "-servers", "4", "-users", "8", "-models", "9",
		"-rate", "15", "-duration", "600", "-save-trace", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	// Replay the same trace with a different algorithm.
	out.Reset()
	err = run([]string{"-alg", "independent", "-servers", "4", "-users", "8", "-models", "9",
		"-replay", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Independent Caching") {
		t.Fatalf("replay output:\n%s", out.String())
	}
}

func TestRunMobilityTimeline(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-alg", "gen", "-servers", "5", "-users", "10", "-models", "10",
		"-mobility", "20", "-checkpoint", "10", "-replace-threshold", "0.05", "-mob-realizations", "10"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"TrimCaching Gen", "time (min)", "replacements"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("mobility output missing %q:\n%s", want, out.String())
		}
	}
	// The incremental and rebuild paths must print identical timelines.
	var reb bytes.Buffer
	err = run([]string{"-alg", "gen", "-servers", "5", "-users", "10", "-models", "10",
		"-mobility", "20", "-checkpoint", "10", "-replace-threshold", "0.05", "-mob-realizations", "10",
		"-rebuild"}, &reb)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != reb.String() {
		t.Fatalf("incremental and rebuild timelines differ:\n%s\nvs\n%s", out.String(), reb.String())
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-alg", "nope"}, &out); err == nil {
		t.Fatal("unknown algorithm must error")
	}
}

func TestRunBadTraceFile(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-replay", "/nonexistent/trace.jsonl"}, &out); err == nil {
		t.Fatal("missing trace file must error")
	}
}

func TestRunRejectsPositionalArgs(t *testing.T) {
	// The old spelling `-trace <file>` must error loudly, not silently run
	// a mobility timeline with the file ignored.
	var out bytes.Buffer
	err := run([]string{"-alg", "independent", "-trace", "requests.jsonl"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-replay") {
		t.Fatalf("positional arg not rejected with -replay hint: %v", err)
	}
}

func TestRunTraceDrivenTimeline(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-alg", "gen", "-servers", "5", "-users", "10", "-models", "10",
		"-trace", "-mobility", "30", "-checkpoint", "10", "-rate", "40",
		"-replace-threshold", "0.2", "-trigger-window", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trace-driven", "measured degradation over 2 checkpoints", "time (min)", "replacements"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("trace-driven output missing %q:\n%s", want, out.String())
		}
	}
	// The trace track must be mode-independent too: incremental and rebuild
	// engines print identical timelines.
	var reb bytes.Buffer
	err = run([]string{"-alg", "gen", "-servers", "5", "-users", "10", "-models", "10",
		"-trace", "-mobility", "30", "-checkpoint", "10", "-rate", "40",
		"-replace-threshold", "0.2", "-trigger-window", "2", "-rebuild"}, &reb)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != reb.String() {
		t.Fatalf("incremental and rebuild trace timelines differ:\n%s\nvs\n%s", out.String(), reb.String())
	}
}

func TestRunTraceDrivenSharded(t *testing.T) {
	// -trace -shards N: the sharded engine serves each cell's owned
	// arrivals and the timeline adds the aggregated per-window serving
	// columns.
	var out bytes.Buffer
	err := run([]string{"-alg", "gen", "-servers", "8", "-users", "60", "-models", "16",
		"-trace", "-shards", "2", "-mobility", "30", "-checkpoint", "10", "-rate", "40",
		"-replace-threshold", "0.2", "-trigger-window", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trace-driven", "2 cells", "requests", "p99"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("sharded trace output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunGalleryUnknownFamily(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-gallery", "nosuch"}, &out)
	if err == nil {
		t.Fatal("unknown gallery family must error")
	}
	for _, want := range []string{"outage", "flashcrowd", "diurnal", "churn", "degrade", "regional"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("unknown-family error does not list %q: %v", want, err)
		}
	}
}

func TestRunGalleryDegradeFamily(t *testing.T) {
	// A reduced-clock degrade run through both engines: the timeline must
	// carry the shrink and restore event labels and a recovery line.
	var out bytes.Buffer
	err := run([]string{"-gallery", "degrade", "-users", "120", "-mobility", "60"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"degrade(3 servers -> 2.02GB)", "degrade(3 servers restored)", "recovery", "sharded"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("degrade gallery output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunGalleryRegionalFamily(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-gallery", "regional", "-users", "120", "-mobility", "60"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"regional(disk down)", "regional(rect -> 2.02GB)", "regional(disk recovered)", "regional(rect recovered)"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("regional gallery output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunGalleryMatchesGoldens is the CLI half of the gallery goldens: for
// every family, a bare -gallery run (flag defaults only) must write the
// exact artifact internal/experiments pins in its testdata.
func TestRunGalleryMatchesGoldens(t *testing.T) {
	dir := t.TempDir()
	for _, name := range experiments.GalleryNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".json")
			var out bytes.Buffer
			if err := run([]string{"-gallery", name, "-gallery-json", path}, &out); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", name+".golden.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("servesim -gallery %s artifact differs from the golden\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
			}
		})
	}
}
