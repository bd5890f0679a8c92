// Command perfbench is the repository's benchmark. One invocation runs one
// named workload for a fixed time and prints every metric by name with its
// unit; the last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. Inputs are generated from
// --seed; the program under test sees only the generated SQL.
//
//	perfbench --workload log-dedupe --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run reports the per-layer breakdown instead. Every verdict is
// checked against a known answer after the timed region, and a wrong one
// fails the run. run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workers is the batch worker count (log-dedupe) or the number of
	// closed-loop clients (serve workloads); at most nproc.
	workers int
	// rounds, when > 0, runs exactly that many batches or rounds instead
	// of measuring for seconds (the self-test uses it for a fixed input).
	rounds int
	// scale sizes the production workload behind each batch or round.
	scale float64
	// workdir holds the shards' stores; a fresh subdirectory is made and
	// removed per run.
	workdir string
}

// workload is one named benchmark input and the path it takes into the
// program.
type workload struct {
	why string
	// workers is the default worker or client count (0: nproc).
	workers int
	// scale is the default production workload scale per batch or round.
	scale float64
	// supersedes names the BENCH_*.json headline this workload replaces.
	supersedes string
	run        func(config) (*report, error)
}

// The serve workloads default to one closed-loop client: on a two-CPU host
// a second client saturates both CPUs together with the router and the
// shards, and the run-to-run spread of every timing triples.
var workloads = map[string]workload{
	"log-dedupe": {
		why:        "The paper's production-log use: about 97% of pairs are structural duplicates, so parse, plan and the engine dedupe and memo layers do the work.",
		supersedes: "BENCH_batch.json pairs_per_sec (engine batch throughput on the production pair stream)",
		scale:      0.1,
		run:        runLogDedupe,
	},
	"serve-cold": {
		why:        "Every pair is new to the cluster, so normalize, the solver, the refuter and store appends do the work: interactive time to verdict.",
		supersedes: "BENCH_serve.json p50_ms/p99_ms (closed-loop latency through the HTTP service)",
		workers:    1,
		scale:      serveScale,
		run:        func(c config) (*report, error) { return runServe(c, false) },
	},
	"serve-warm": {
		why:        "Shards restart on stores a cold pass wrote, so store reads and witness replay replace the solver and the refuter.",
		supersedes: "BENCH_warm.json speedup, read as serve-warm pairs_per_s over serve-cold pairs_per_s",
		workers:    1,
		scale:      serveScale,
		run:        func(c config) (*report, error) { return runServe(c, true) },
	},
}

// serveScale puts more production pairs than Calcite pairs in a serve
// round, so the round's median latency falls inside the production pairs'
// distribution rather than on the step between the two sources.
const serveScale = 0.2

// metricSpec is a metric's name and unit, as BENCHMARK.json lists them.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every one is nonzero on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"pairs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_ms_per_pair", "ms"},
	{"alloc_mb_per_pair", "MB"},
	{"heap_retained_mb", "MB"},
	{"proved_frac", "frac"},
	{"decided_frac", "frac"},
}

// verdictChecks are the end-to-end outcome shares that are zero by design
// on some or all workloads. They are printed with the end-to-end metrics;
// failed and wrong verdicts are also carried by the result's failed and
// correct fields, and refuted_frac is the per-layer refute.refuted_frac.
var verdictChecks = []metricSpec{
	{"refuted_frac", "frac"},
	{"failed_frac", "frac"},
	{"wrong_verdicts", "count"},
}

// perLayer are the traced run's metrics, named <module>.<metric>.
var perLayer = []metricSpec{
	{"sqlparser.parse_ms", "ms"},
	{"plan.build_ms", "ms"},
	{"plan.nodes_per_query", "count"},
	{"engine.verify_ms", "ms"},
	{"engine.dedupe_frac", "frac"},
	{"engine.norm_memo_hit_frac", "frac"},
	{"engine.obligation_hit_frac", "frac"},
	{"normalize.ms", "ms"},
	{"normalize.nodes_out", "count"},
	{"verify.check_ms", "ms"},
	{"verify.vericard_calls", "count"},
	{"verify.candidates", "count"},
	{"smt.solver_queries", "count"},
	{"smt.model_rounds", "count"},
	{"smt.theory_conflicts", "count"},
	{"smt.core_checks", "count"},
	{"smt.sessions", "count"},
	{"smt.prefix_reuse_frac", "frac"},
	{"fol.term_nodes", "count"},
	{"fol.interner_epochs", "count"},
	{"refute.ms", "ms"},
	{"refute.searches", "count"},
	{"refute.rounds", "count"},
	{"refute.shrink_steps", "count"},
	{"refute.witness_frac", "frac"},
	{"refute.refuted_frac", "frac"},
	{"store.lookup_ms", "ms"},
	{"store.append_ms", "ms"},
	{"store.hit_frac", "frac"},
	{"store.appends", "count"},
	{"store.bytes_per_pair", "bytes"},
	{"store.open_ms", "ms"},
	{"server.request_ms", "ms"},
	{"server.coalesced", "count"},
	{"server.rejected", "count"},
	{"server.witness_hits", "count"},
	{"cluster.overhead_ms", "ms"},
	{"cluster.forward_retries", "count"},
	{"cluster.failovers", "count"},
	{"cluster.shard_pairs_max_over_mean", "ratio"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.gc_cycles_per_kpair", "count"},
	{"runtime.allocs_per_pair", "count"},
	{"trace.overhead_frac", "frac"},
	{"trace.unattributed_frac", "frac"},
}

// setupRepeats is how many times a run sets up when set-up is not
// naturally repeated per round; setup_s is the median.
const setupRepeats = 3

// report is one run's result.
type report struct {
	values    map[string]float64 // end-to-end or per-layer, by name
	attempted int
	failed    int
	wrong     int
	failovers int            // pairs the router re-routed off a shard
	record    map[string]any // host and input record
	notes     []string       // extra human-readable lines
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	nproc := runtime.NumCPU()
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "measured time per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	fs.IntVar(&cfg.workers, "workers", 0, "batch workers or closed-loop clients, at most nproc (0: the workload's default)")
	fs.IntVar(&cfg.rounds, "rounds", 0, "run exactly this many batches or rounds instead of --seconds (0: time-bound)")
	fs.Float64Var(&cfg.scale, "scale", 0, "production workload scale per batch or round (0: the workload's default)")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "directory for the shards' stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[cfg.workload]
	if cfg.workers == 0 {
		cfg.workers = wl.workers
	}
	if cfg.workers == 0 {
		cfg.workers = nproc
	}
	if cfg.scale == 0 {
		cfg.scale = wl.scale
	}
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	case traceFlag != 0 && traceFlag != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	case cfg.workers < 1 || cfg.workers > nproc:
		fmt.Fprintf(stderr, "perfbench: --workers %d outside [1, nproc=%d]: load comes from one process and never exceeds the host's CPUs\n", cfg.workers, nproc)
		return 2
	case cfg.seconds <= 0 || cfg.scale <= 0:
		fmt.Fprintln(stderr, "perfbench: --seconds and --scale must be positive")
		return 2
	}
	cfg.trace = traceFlag == 1

	rep, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.record["workload"] = cfg.workload
	rep.record["why"] = wl.why
	rep.record["supersedes"] = wl.supersedes
	rep.record["nproc"] = nproc
	rep.record["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.record["go"] = runtime.Version()
	rep.record["seed"] = cfg.seed
	rep.record["workers"] = cfg.workers
	rep.record["trace"] = cfg.trace
	if err := rep.print(stdout, cfg.trace); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if rep.wrong > 0 {
		fmt.Fprintf(stderr, "perfbench: %d wrong verdicts\n", rep.wrong)
		return 1
	}
	if rep.failovers > 0 {
		fmt.Fprintf(stderr, "perfbench: %d pairs failed over to another shard\n", rep.failovers)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the record, one line per metric, and the result JSON as the
// last line. Every metric of the mode must be present and finite.
func (r *report) print(w io.Writer, traced bool) error {
	rec, err := json.Marshal(r.record)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "record %s\n", rec)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	res := result{
		Correct:   r.wrong == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v, ok := r.values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s missing or not finite (%v)", s.name, v)
		}
		res.Metrics[s.name] = metricValue{v, s.unit}
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", s.name, v, s.unit)
	}
	if !traced {
		checks := map[string]float64{
			"refuted_frac":   r.values["refuted_frac"],
			"failed_frac":    frac(float64(r.failed), float64(r.attempted)),
			"wrong_verdicts": float64(r.wrong),
		}
		for _, s := range verdictChecks {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", s.name, checks[s.name], s.unit)
		}
	}
	if r.attempted < 1 {
		return fmt.Errorf("no pairs attempted")
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// tally accumulates a run's timed outcomes and decides when the timed
// region ends. A run steps through its inputs (log segments or serve round
// streams) in cycles; with --trace 1 each input runs twice, untraced and
// then traced, so trace.overhead_frac compares like with like.
type tally struct {
	cfg config
	// cycle is the number of distinct inputs; a time-bound run stops only
	// on a whole number of cycles, so every run, on any host or commit,
	// measures the same multiset of inputs.
	cycle int
	orc   *oracle
	// plain meters the untraced steps, traced the traced ones.
	plain, traced meter
	step          int // steps done, traced and untraced
	lat           []time.Duration
	tracedLat     []time.Duration
	setup         []float64
	pairs         int
	tracedPairs   int
	proved        int
	refuted       int
	failed        int
	failovers     int
	wrong         int
	digest        digest
	heapMB        float64
	errs          []string // first few wrong-verdict reasons

	// Per-step rates of the untraced steps: medians over steps keep one
	// disturbed step from moving a run's figure.
	roundPPS, roundCPU, roundP50 []float64
	lastWall                     time.Duration
	lastCPU                      time.Duration
}

func newTally(cfg config, cycle int, orc *oracle) *tally {
	return &tally{cfg: cfg, cycle: cycle, orc: orc, digest: newDigest()}
}

// input is the index of the input the current step runs.
func (t *tally) input() int {
	if t.cfg.trace {
		return t.step / 2
	}
	return t.step
}

// traced reports whether the current step is a traced one.
func (t *tally) tracedStep() bool { return t.cfg.trace && t.step%2 == 1 }

// meter is the meter the current step's timed region goes into.
func (t *tally) meter() *meter {
	if t.tracedStep() {
		return &t.traced
	}
	return &t.plain
}

// done reports whether the timed region is over: after --rounds inputs,
// or once --seconds are spent and the last cycle of inputs is whole. A
// traced step always follows its untraced twin.
func (t *tally) done() bool {
	if t.tracedStep() {
		return false
	}
	n := t.input()
	if t.cfg.rounds > 0 {
		return n >= t.cfg.rounds
	}
	return n > 0 && n%t.cycle == 0 && (t.plain.wall+t.traced.wall).Seconds() >= t.cfg.seconds
}

// add records the current step's outcomes, checks them against the known
// answers (after the timed region) and moves to the next step.
func (t *tally) add(outs []outcome) {
	traced := t.tracedStep()
	for i, o := range outs {
		t.pairs++
		t.digest.add(t.step, i, o.pair.kind, o.verdict)
		switch {
		case o.failed:
			t.failed++
		case o.verdict == "equivalent":
			t.proved++
		case o.verdict == "refuted":
			t.refuted++
		}
		if why := t.orc.wrong(o); why != "" {
			t.wrong++
			if len(t.errs) < 5 {
				t.errs = append(t.errs, why)
			}
		}
	}
	t.step++
	if traced {
		t.tracedPairs += len(outs)
		for _, o := range outs {
			t.tracedLat = append(t.tracedLat, o.latency)
		}
		return
	}
	n := float64(len(outs))
	wall, cpu := t.plain.wall-t.lastWall, t.plain.cpu-t.lastCPU
	t.lastWall, t.lastCPU = t.plain.wall, t.plain.cpu
	lat := make([]time.Duration, len(outs))
	for i, o := range outs {
		lat[i] = o.latency
	}
	t.lat = append(t.lat, lat...)
	t.roundPPS = append(t.roundPPS, n/wall.Seconds())
	t.roundCPU = append(t.roundCPU, ms(cpu)/n)
	t.roundP50 = append(t.roundP50, percentileMS(lat, 0.50))
}

// overheadFrac is trace.overhead_frac: how much slower the traced steps
// ran than their untraced twins.
func (t *tally) overheadFrac() float64 {
	untraced := float64(t.pairs-t.tracedPairs) / t.plain.wall.Seconds()
	return 1 - (float64(t.tracedPairs)/t.traced.wall.Seconds())/untraced
}

// base is the report's outcome fields and record, shared by both modes.
func (t *tally) base(values map[string]float64) *report {
	r := &report{
		values:    values,
		attempted: t.pairs,
		failed:    t.failed + t.failovers,
		wrong:     t.wrong,
		failovers: t.failovers,
		record: map[string]any{
			"pairs":          t.pairs,
			"inputs":         t.input(),
			"input_cycle":    t.cycle,
			"verdict_digest": t.digest.String(),
		},
	}
	for _, e := range t.errs {
		r.notes = append(r.notes, "wrong verdict: "+e)
	}
	if t.failovers > 0 {
		r.notes = append(r.notes, fmt.Sprintf("cluster failovers: %d pairs re-routed off a shard (must be 0; counted as failed)", t.failovers))
	}
	return r
}

// report turns an untraced run's tally into the end-to-end report.
func (t *tally) report() *report {
	n := float64(t.pairs)
	samples := len(t.lat)
	r := t.base(map[string]float64{
		"setup_s":           median(t.setup),
		"pairs_per_s":       median(t.roundPPS),
		"latency_p50_ms":    median(t.roundP50),
		"latency_p99_ms":    percentileMS(t.lat, 0.99),
		"cpu_ms_per_pair":   median(t.roundCPU),
		"alloc_mb_per_pair": t.plain.allocBytes / (1 << 20) / n,
		"heap_retained_mb":  t.heapMB,
		"proved_frac":       float64(t.proved) / n,
		"decided_frac":      float64(t.proved+t.refuted) / n,
		"refuted_frac":      float64(t.refuted) / n,
	})
	r.record["latency_samples"] = samples
	r.record["p99_samples_above"] = samples - int(0.99*float64(samples)+0.5)
	r.record["setup_samples"] = len(t.setup)
	if samples < 1000 {
		r.notes = append(r.notes, fmt.Sprintf("note: latency_p99_ms rests on %d samples, fewer than the 1000 that put 10 above it", samples))
	}
	return r
}
