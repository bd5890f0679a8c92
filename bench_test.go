// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablation and component microbenchmarks. Run:
//
//	go test -bench=. -benchmem
//
// BenchmarkTable1_* measure the per-pair verification cost of each verifier
// over the 232-pair Calcite-style suite (the Table 1 timing columns);
// BenchmarkTable2 and BenchmarkFigure7 regenerate the production-workload
// experiments; BenchmarkAblation_* quantify each normalization rule's cost.
package spes

import (
	"testing"

	"spes/internal/bench"
	"spes/internal/corpus"
	"spes/internal/engine"
	"spes/internal/equitas"
	"spes/internal/normalize"
	"spes/internal/plan"
	"spes/internal/udp"
	"spes/internal/verify"
)

// supportedPlans builds the supported pairs once.
func supportedPlans(b *testing.B) [][2]plan.Node {
	b.Helper()
	cat := corpus.Catalog()
	bd := plan.NewBuilder(cat)
	var out [][2]plan.Node
	for _, p := range corpus.CalcitePairs() {
		q1, err1 := bd.BuildSQL(p.SQL1)
		q2, err2 := bd.BuildSQL(p.SQL2)
		if err1 != nil || err2 != nil {
			continue
		}
		out = append(out, [2]plan.Node{q1, q2})
	}
	return out
}

// BenchmarkTable1_SPES measures SPES (normalize + verify) per pair.
func BenchmarkTable1_SPES(b *testing.B) {
	pairs := supportedPlans(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		nz := normalize.New(normalize.Options{})
		verify.New().VerifyPlans(nz.Normalize(p[0]), nz.Normalize(p[1]))
	}
}

// BenchmarkTable1_SPESNoNorm is the "SPES (w/o normalization)" row.
func BenchmarkTable1_SPESNoNorm(b *testing.B) {
	pairs := supportedPlans(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		verify.New().VerifyPlans(p[0], p[1])
	}
}

// BenchmarkTable1_EQUITAS is the set-semantics baseline row.
func BenchmarkTable1_EQUITAS(b *testing.B) {
	pairs := supportedPlans(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		equitas.New().VerifyPlans(p[0], p[1])
	}
}

// BenchmarkTable1_UDP is the algebraic baseline row.
func BenchmarkTable1_UDP(b *testing.B) {
	pairs := supportedPlans(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		udp.New().VerifyPlans(p[0], p[1])
	}
}

// BenchmarkTable1_Full regenerates the whole comparative table per
// iteration (all four verifiers over all 232 pairs).
func BenchmarkTable1_Full(b *testing.B) {
	pairs := corpus.CalcitePairs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.RunTable1(pairs)
	}
}

// BenchmarkTable2 regenerates the production overlap study (scaled down;
// pass -scale via spes-bench for larger runs).
func BenchmarkTable2(b *testing.B) {
	w := corpus.ProductionWorkload(2022, 0.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.RunTable2(w)
	}
}

// BenchmarkFigure7 regenerates the complexity distribution.
func BenchmarkFigure7(b *testing.B) {
	pairs := corpus.CalcitePairs()
	w := corpus.ProductionWorkload(2022, 0.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.RunFigure7(pairs, w)
	}
}

// Ablations: each normalization rule disabled individually (DESIGN.md's
// extension beyond the paper).
func benchAblation(b *testing.B, opts normalize.Options) {
	pairs := supportedPlans(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		nz := normalize.New(opts)
		verify.New().VerifyPlans(nz.Normalize(p[0]), nz.Normalize(p[1]))
	}
}

func BenchmarkAblation_NoSPJMerge(b *testing.B) {
	benchAblation(b, normalize.Options{NoSPJMerge: true})
}

func BenchmarkAblation_NoUnionRules(b *testing.B) {
	benchAblation(b, normalize.Options{NoUnionRules: true})
}

func BenchmarkAblation_NoEmptyTable(b *testing.B) {
	benchAblation(b, normalize.Options{NoEmptyTable: true})
}

func BenchmarkAblation_NoPushdown(b *testing.B) {
	benchAblation(b, normalize.Options{NoPushdown: true})
}

func BenchmarkAblation_NoAggMerge(b *testing.B) {
	benchAblation(b, normalize.Options{NoAggMerge: true})
}

func BenchmarkAblation_NoIntegrity(b *testing.B) {
	benchAblation(b, normalize.Options{NoIntegrity: true})
}

// BenchmarkVerify_PaperExample1 is the paper's flagship example (§3.2) end
// to end: parse, build, normalize, verify.
func BenchmarkVerify_PaperExample1(b *testing.B) {
	cat := corpus.Catalog()
	q1 := `SELECT SUM(T.SALARY), T.LOCATION FROM (SELECT SALARY, LOCATION FROM DEPT, EMP
		WHERE EMP.DEPT_ID = DEPT.DEPT_ID AND DEPT.DEPT_ID + 5 = 15) AS T GROUP BY T.LOCATION`
	q2 := `SELECT SUM(T.SALARY), T.LOCATION FROM (SELECT SALARY, LOCATION, DEPT.DEPT_ID FROM EMP, DEPT
		WHERE EMP.DEPT_ID = DEPT.DEPT_ID AND DEPT.DEPT_ID = 10) AS T GROUP BY T.LOCATION, T.DEPT_ID`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Verify(cat, q1, q2)
		if err != nil || res.Verdict != Equivalent {
			b.Fatalf("verdict=%v err=%v", res.Verdict, err)
		}
	}
}

// batchPairs builds the Table 2 candidate pairs of a small production
// workload once per benchmark binary; the engine benchmarks below all run
// the same pair slice, so their pairs/s compare directly with
// BenchmarkBatch_Sequential's.
var batchPairsOnce []engine.PlanPair

func batchBenchPairs(b *testing.B) []engine.PlanPair {
	b.Helper()
	if batchPairsOnce == nil {
		w := corpus.ProductionWorkload(2022, 0.1)
		batchPairsOnce = bench.BatchPairs(w)
	}
	if len(batchPairsOnce) == 0 {
		b.Fatal("no batch pairs built")
	}
	return batchPairsOnce
}

// BenchmarkBatch_Sequential is the baseline the acceptance speedup is
// measured against: the sequential Table 2 path (fresh normalizer and
// verifier per pair, no memo layers).
func BenchmarkBatch_Sequential(b *testing.B) {
	pairs := batchBenchPairs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.RunSequentialBaseline(pairs)
	}
	b.ReportMetric(float64(len(pairs)*b.N)/b.Elapsed().Seconds(), "pairs/s")
}

func benchmarkBatchWorkers(b *testing.B, workers int) {
	pairs := batchBenchPairs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats := engine.VerifyPlanBatch(pairs, engine.Options{Workers: workers})
		if stats.Pairs != len(pairs) {
			b.Fatalf("verified %d of %d pairs", stats.Pairs, len(pairs))
		}
	}
	b.ReportMetric(float64(len(pairs)*b.N)/b.Elapsed().Seconds(), "pairs/s")
}

func BenchmarkBatch_Parallel1(b *testing.B) { benchmarkBatchWorkers(b, 1) }
func BenchmarkBatch_Parallel4(b *testing.B) { benchmarkBatchWorkers(b, 4) }
func BenchmarkBatch_Parallel8(b *testing.B) { benchmarkBatchWorkers(b, 8) }

// BenchmarkBatch_Parallel4Allocs is the allocation-focused batch variant:
// allocs/op and B/op of the 4-worker engine path.
func BenchmarkBatch_Parallel4Allocs(b *testing.B) {
	b.ReportAllocs()
	benchmarkBatchWorkers(b, 4)
}
