package main

import (
	"fmt"
	"time"

	"spes/internal/datagen"
	"spes/internal/exec"
	"spes/internal/plan"
	"spes/internal/refute"
	"spes/internal/schema"
)

// outcome is one pair's result as the benchmark saw it.
type outcome struct {
	pair    sqlPair
	verdict string
	failed  bool
	latency time.Duration
	// witness backs a refuted verdict: decoded from the reply (serve) or
	// taken from the engine result (batch).
	witness *refute.Witness
	shard   string
	// elapsedMS is the shard's own time for the pair (serve only).
	elapsedMS float64
}

// oracleDBs is how many seeded random databases a cross-cluster
// Equivalent verdict is executed on.
const oracleDBs = 6

// oracle checks verdicts against the known answer, after the timed region:
//   - a pair equivalent by construction must not come back refuted;
//   - a refuted pair's witness must replay;
//   - a cross-cluster equivalent pair must give equal output bags on
//     seeded random databases.
type oracle struct {
	builder *plan.Builder
	dbs     []exec.Database
}

func newOracle(cat *schema.Catalog, seed int64) *oracle {
	g := datagen.NewGenerator(seed, datagen.Options{})
	o := &oracle{builder: plan.NewBuilder(cat)}
	for i := 0; i < oracleDBs; i++ {
		o.dbs = append(o.dbs, g.Database(cat))
	}
	return o
}

// wrong reports why the outcome contradicts the known answer, or "".
func (o *oracle) wrong(out outcome) string {
	switch out.verdict {
	case "refuted":
		if out.pair.equivalent {
			return fmt.Sprintf("%s pair is equivalent by construction but came back refuted", out.pair.kind)
		}
		q1, q2, err := o.plans(out.pair)
		if err != nil {
			return "refuted pair does not build: " + err.Error()
		}
		if out.witness == nil {
			return "refuted without a witness"
		}
		if err := out.witness.Replay(q1, q2); err != nil {
			return "witness does not replay: " + err.Error()
		}
	case "equivalent":
		if out.pair.kind != kindCross {
			return ""
		}
		q1, q2, err := o.plans(out.pair)
		if err != nil {
			return "equivalent pair does not build: " + err.Error()
		}
		for i, db := range o.dbs {
			r1, err1 := exec.Run(db, q1)
			r2, err2 := exec.Run(db, q2)
			if err1 == nil && err2 == nil && !exec.BagEqual(r1, r2) {
				return fmt.Sprintf("cross-cluster equivalent pair differs on random database %d", i)
			}
		}
	}
	return ""
}

func (o *oracle) plans(p sqlPair) (plan.Node, plan.Node, error) {
	q1, err := o.builder.BuildSQL(p.sql1)
	if err != nil {
		return nil, nil, err
	}
	q2, err := o.builder.BuildSQL(p.sql2)
	return q1, q2, err
}
