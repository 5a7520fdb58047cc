// Command trimcaching regenerates the paper's tables and figures.
//
// Usage:
//
//	trimcaching list
//	trimcaching <experiment> [flags]
//	trimcaching all [flags]
//
// `trimcaching list` names every experiment: the paper's figures and the
// ablations.
//
// Flags mirror §VII-A fidelity knobs: -topologies (paper: 100),
// -realizations (paper: >1000), -seed, -epsilon, -models, -pool, -workers,
// plus -out to tee results to a file and -chart to draw an ASCII chart
// under each table.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"trimcaching/internal/experiments"
	"trimcaching/internal/plot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trimcaching:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		usage(stdout)
		return fmt.Errorf("missing command")
	}
	cmd := args[0]
	if cmd == "list" || cmd == "help" || cmd == "-h" || cmd == "--help" {
		usage(stdout)
		return nil
	}

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	opt := experiments.DefaultOptions()
	topologies := fs.Int("topologies", opt.Topologies, "random network topologies per point (paper: 100)")
	realizations := fs.Int("realizations", opt.Realizations, "Rayleigh fading realizations per topology (paper: >1000)")
	workers := fs.Int("workers", 0, "parallel trial workers (0 = GOMAXPROCS)")
	seed := fs.Uint64("seed", opt.Seed, "root random seed")
	epsilon := fs.Float64("epsilon", opt.Epsilon, "TrimCaching Spec rounding epsilon")
	models := fs.Int("models", opt.LibraryModels, "library size I used for placement")
	pool := fs.Int("pool", opt.LibraryPoolPerFamily, "per-family pool the library is drawn from")
	out := fs.String("out", "", "also append rendered results to this file")
	chart := fs.Bool("chart", false, "render an ASCII chart under each table")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	opt.Topologies = *topologies
	opt.Realizations = *realizations
	opt.Workers = *workers
	opt.Seed = *seed
	opt.Epsilon = *epsilon
	opt.LibraryModels = *models
	opt.LibraryPoolPerFamily = *pool

	var runners []experiments.Runner
	if cmd == "all" {
		runners = experiments.All()
	} else {
		r, err := experiments.ByName(cmd)
		if err != nil {
			usage(stdout)
			return err
		}
		runners = []experiments.Runner{r}
	}

	var sink io.Writer = stdout
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open output file: %w", err)
		}
		defer f.Close()
		sink = io.MultiWriter(stdout, f)
	}

	for _, r := range runners {
		start := time.Now()
		tbl, err := r.Run(opt)
		if err != nil {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
		fmt.Fprintf(sink, "%s\n(%s, %v, topologies=%d realizations=%d seed=%d)\n\n",
			tbl.Render(), r.Name, time.Since(start).Round(time.Millisecond),
			opt.Topologies, opt.Realizations, opt.Seed)
		if *chart {
			rendered, err := plot.Chart(tbl, 72, 20)
			if err != nil {
				return fmt.Errorf("%s: chart: %w", r.Name, err)
			}
			fmt.Fprintf(sink, "%s\n", rendered)
		}
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: trimcaching <experiment|all|list> [flags]")
	fmt.Fprintln(w, "experiments:")
	for _, r := range experiments.All() {
		fmt.Fprintf(w, "  %-16s %s\n", r.Name, r.Description)
	}
	fmt.Fprintln(w, "flags: -topologies -realizations -workers -seed -epsilon -models -pool -out -chart")
}
