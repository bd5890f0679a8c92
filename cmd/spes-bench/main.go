// Command spes-bench regenerates the paper's evaluation tables and figures
// on the built-in corpora.
//
// Usage:
//
//	spes-bench -table 1             # comparative analysis (Table 1)
//	spes-bench -table 1 -limits     # plus the §7.4 limitation breakdown
//	spes-bench -table 2 -scale 0.1  # production-workload overlap (Table 2)
//	spes-bench -figure 7 -scale 0.1 # complexity distribution (Figure 7)
//	spes-bench -all                 # everything
//
// -parallel N fans Table 2 and Figure 7 across N engine workers
// (0 = GOMAXPROCS, 1 = the sequential paper path); the verdicts do not
// depend on N. Performance is measured by perfbench, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"spes/internal/bench"
	"spes/internal/corpus"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the selected results to
// stdout and diagnostics to stderr, and returns the exit code (2 for a bad
// invocation).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spes-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table    = fs.Int("table", 0, "regenerate Table 1 or 2")
		figure   = fs.Int("figure", 0, "regenerate Figure 7")
		all      = fs.Bool("all", false, "regenerate everything")
		limits   = fs.Bool("limits", false, "with -table 1: print the limitation breakdown")
		scale    = fs.Float64("scale", 0.1, "production workload scale (1.0 = the full 9,486 queries)")
		seed     = fs.Int64("seed", 2022, "workload generator seed")
		asJSON   = fs.Bool("json", false, "emit machine-readable JSON instead of rendered tables")
		parallel = fs.Int("parallel", 1, "engine workers for Table 2 / Figure 7 (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...interface{}) int {
		fmt.Fprintf(stderr, "spes-bench: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	switch {
	case *table != 0 && *table != 1 && *table != 2:
		return usage("-table %d: the paper has Tables 1 and 2", *table)
	case *figure != 0 && *figure != 7:
		return usage("-figure %d: only Figure 7 is regenerated", *figure)
	case !(*scale > 0) || math.IsInf(*scale, 1):
		return usage("-scale %v: must be a finite number > 0", *scale)
	case !*all && *table == 0 && *figure == 0:
		return usage("nothing selected; use -table 1, -table 2, -figure 7, or -all")
	}

	// Table 2 and Figure 7 read the same production workload.
	var w *corpus.Workload
	if *all || *table == 2 || *figure == 7 {
		w = corpus.ProductionWorkload(*seed, *scale)
	}
	out := map[string]interface{}{}
	if *all || *table == 1 {
		pairs := corpus.CalcitePairs()
		res := bench.RunTable1(pairs)
		if *asJSON {
			out["table1"] = res.Rows
		} else {
			fmt.Fprint(stdout, bench.RenderTable1(res, len(pairs)))
			if *limits || *all {
				fmt.Fprintln(stdout)
				fmt.Fprint(stdout, bench.RenderLimitations(res))
			}
			fmt.Fprintln(stdout)
		}
	}
	if *all || *table == 2 {
		rows := bench.RunTable2Workers(w, *parallel)
		if *asJSON {
			out["table2"] = rows
		} else {
			fmt.Fprint(stdout, bench.RenderTable2(rows))
			fmt.Fprintln(stdout)
		}
	}
	if *all || *figure == 7 {
		fig := bench.RunFigure7Workers(corpus.CalcitePairs(), w, *parallel)
		if *asJSON {
			out["figure7"] = fig
		} else {
			fmt.Fprint(stdout, bench.RenderFigure7(fig))
		}
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "spes-bench: %v\n", err)
			return 1
		}
	}
	return 0
}
