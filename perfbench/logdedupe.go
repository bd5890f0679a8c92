package main

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spes/internal/engine"
	"spes/internal/plan"
	"spes/internal/schema"
	"spes/internal/sqlparser"
)

// logSegments is how many independent log segments a run cycles through,
// one engine.VerifyBatch call each. Segments differ in cost by about 20%,
// so a run measures whole cycles of them; a cycle is short enough that
// ending on one adds little to --seconds.
const logSegments = 6

// runLogDedupe verifies the production log's within-cluster pair stream
// with engine.VerifyBatch, workers = cfg.workers, one fresh batch per log
// segment, until the measured time is spent. With cfg.trace every segment
// runs twice: through engine.VerifyBatch, then through tracedBatch, and
// the first traced batch's verified pairs are replayed stage by stage.
func runLogDedupe(cfg config) (*report, error) {
	var segs [][]engine.Pair
	var cat *schema.Catalog
	var setup []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		segs = make([][]engine.Pair, logSegments)
		for k := range segs {
			segs[k], cat = logSegment(k, cfg.seed, cfg.scale)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(segs))
	opts := engine.Options{Workers: cfg.workers}

	t := newTally(cfg, len(segs), newOracle(cat, cfg.seed))
	t.setup = setup
	lt := &logTrace{prof: newProfile()}
	for !t.done() {
		seg := segs[order[t.input()%len(order)]]
		m := t.meter()
		u := readUsage()
		var res []engine.Result
		if t.tracedStep() {
			res = lt.batch(cat, seg, opts)
		} else {
			res, _ = engine.VerifyBatch(cat, seg, opts)
		}
		m.span(u)
		t.add(batchOutcomes(seg, res))
	}
	if !cfg.trace {
		t.heapMB = batchHeapMB(cat, segs[0], opts)
		return t.report(), nil
	}
	return lt.report(t, cat), nil
}

// batchHeapMB is the live heap a batch engine holds when its batch ends:
// memo tables, dedupe maps, obligation cache and interner. It runs one
// untimed batch the way engine.VerifyBatch does, but keeps the engine's
// shared state alive until the heap is measured.
func batchHeapMB(cat *schema.Catalog, pairs []engine.Pair, opts engine.Options) float64 {
	opts.ConstraintDigest = cat.ConstraintDigest()
	base := liveHeapMB()
	s := engine.NewShared(opts)
	results := make([]engine.Result, len(pairs))
	s.ForEach(cat, len(pairs), func(w *engine.Worker, i int) {
		results[i] = w.VerifyPair(pairs[i])
	})
	heap := liveHeapMB() - base
	runtime.KeepAlive(s)
	runtime.KeepAlive(results)
	return heap
}

// batchOutcomes adapts engine results; every log pair is a within-cluster
// rewrite, equivalent by construction.
func batchOutcomes(pairs []engine.Pair, res []engine.Result) []outcome {
	outs := make([]outcome, len(res))
	for i, r := range res {
		outs[i] = outcome{
			pair:    sqlPair{kind: kindWithin, sql1: pairs[i].SQL1, sql2: pairs[i].SQL2, equivalent: true},
			verdict: r.Verdict.String(),
			failed:  r.TimedOut || r.Cancelled || r.Panicked || r.WatchdogAbort || strings.HasPrefix(r.Reason, "build: "),
			latency: r.Elapsed,
			witness: r.Witness,
		}
	}
	return outs
}

// logTrace collects what the traced batches of a log-dedupe run measure.
type logTrace struct {
	prof      *profile
	snaps     engineCounts
	batches   int
	replaySeg []engine.Pair
	replayRes []engine.Result
}

// batch runs one traced batch and folds its spans and counters in.
func (lt *logTrace) batch(cat *schema.Catalog, seg []engine.Pair, opts engine.Options) []engine.Result {
	t0 := time.Now()
	res, snap, tracers := tracedBatch(cat, seg, opts)
	// The batch held every worker's CPU from start to end, engine set-up
	// and the wait for the last worker included; span time outside the
	// layers is unattributed.
	for _, tr := range tracers {
		lt.prof.add(tr)
	}
	lt.prof.busy += time.Since(t0) * time.Duration(opts.Workers)
	lt.snaps.add(snap, engine.StatsSnapshot{})
	lt.batches++
	if lt.replaySeg == nil {
		lt.replaySeg, lt.replayRes = seg, res
	}
	return res
}

// report replays the first traced batch's verified pairs (the engine's
// dedupe leaders) stage by stage and turns the run into the per-layer
// report, with the two predictions the layers make for this workload.
func (lt *logTrace) report(t *tally, cat *schema.Catalog) *report {
	rp := newReplayer(cat, 0)
	for i, r := range lt.replayRes {
		if !r.Deduped && r.Verdict != engine.Unsupported {
			rp.pair(lt.replaySeg[i].SQL1, lt.replaySeg[i].SQL2, "")
		}
	}
	lm := zeroLayers()
	rprof := rp.replayLayers(lm, len(lt.replaySeg))
	prof, snaps := lt.prof, lt.snaps
	n := float64(t.tracedPairs)
	lm["sqlparser.parse_ms"] = prof.perCall(layerParse) / 2
	lm["plan.build_ms"] = prof.perCall(layerBuild) / 2
	lm["engine.verify_ms"] = prof.perCall(layerEngine)
	lm["engine.dedupe_frac"] = frac(float64(snaps.Deduped), float64(snaps.Pairs))
	lm["engine.norm_memo_hit_frac"] = frac(float64(snaps.NormHits), float64(snaps.NormHits+snaps.NormMisses))
	lm["engine.obligation_hit_frac"] = frac(float64(snaps.ObligationHits), float64(snaps.ObligationHits+snaps.ObligationMisses))
	lm["fol.term_nodes"] = float64(snaps.TermNodes) / float64(lt.batches)
	lm["fol.interner_epochs"] = float64(snaps.InternerEpochs) / float64(lt.batches)
	lm["refute.refuted_frac"] = float64(t.refuted) / float64(t.pairs)
	runtimeLayers(lm, t.traced, n)
	lm["trace.overhead_frac"] = t.overheadFrac()
	lm["trace.unattributed_frac"] = unattributed(prof, rprof)

	rep := t.base(lm)
	rep.record["traced_pairs"] = t.tracedPairs
	rep.record["untraced_pairs"] = t.pairs - t.tracedPairs
	rep.record["replayed_pairs"] = rp.pairs

	// The batch's layers cover most of the CPU time the traced batches
	// held (wall time x workers), not just most of the span time.
	front := frac(float64(prof.self[layerParse]+prof.self[layerBuild]+prof.self[layerEngine]), float64(prof.busy))
	// The solver does little: the replayed leaders' verify+refute self
	// time, scaled to the batch, is a minor part of the engine's span, whose
	// rest is dedupe and memo work.
	solver := frac(lm["verify.check_ms"]+lm["refute.ms"], lm["engine.verify_ms"])
	rep.notes = append(rep.notes,
		"self-time shares of held CPU, traced batches: "+formatShares(prof),
		"self-time shares, staged replay: "+formatShares(rprof),
		prediction("sqlparser+plan+engine cover most of the traced batches' held CPU", front, front > 0.5),
		prediction("the solver (verify+refute) is under half of engine.verify_ms", solver, solver < 0.5))
	return rep
}

// tracedBatch is engine.VerifyBatch with spans: each worker parses, builds,
// and calls Worker.VerifyPlansContext itself, timing each call.
func tracedBatch(cat *schema.Catalog, pairs []engine.Pair, opts engine.Options) ([]engine.Result, engine.StatsSnapshot, []*tracer) {
	opts.ConstraintDigest = cat.ConstraintDigest()
	s := engine.NewShared(opts)
	results := make([]engine.Result, len(pairs))
	tracers := make([]*tracer, opts.Workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := range tracers {
		tr := &tracer{}
		tracers[k] = tr
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := s.NewWorker(cat)
			b := plan.NewBuilder(cat)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pairs) {
					return
				}
				results[i] = tracedPair(tr, w, b, pairs[i])
			}
		}()
	}
	wg.Wait()
	return results, s.Snapshot(), tracers
}

func tracedPair(tr *tracer, w *engine.Worker, b *plan.Builder, p engine.Pair) engine.Result {
	sp := tr.begin(layerParse)
	a1, err1 := sqlparser.ParseQuery(p.SQL1)
	a2, err2 := sqlparser.ParseQuery(p.SQL2)
	tr.end(sp)
	if err := firstErr(err1, err2); err != nil {
		return engine.Result{ID: p.ID, Verdict: engine.NotProved, Reason: "build: " + err.Error()}
	}
	sp = tr.begin(layerBuild)
	q1, err1 := b.Build(a1)
	q2, err2 := b.Build(a2)
	tr.end(sp)
	if err := firstErr(err1, err2); err != nil {
		if plan.Unsupported(err) {
			return engine.Result{ID: p.ID, Verdict: engine.Unsupported, Reason: err.Error()}
		}
		return engine.Result{ID: p.ID, Verdict: engine.NotProved, Reason: "build: " + err.Error()}
	}
	sp = tr.begin(layerEngine)
	r := w.VerifyPlansContext(context.Background(), p.ID, q1, q2)
	tr.end(sp)
	return r
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
