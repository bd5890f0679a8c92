package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spes/internal/cluster"
	"spes/internal/engine"
	"spes/internal/refute"
	"spes/internal/schema"
	"spes/internal/server"
)

const (
	// shardCount is the number of in-process shards behind the router.
	shardCount = 2
	// refuteBudget is each shard's counterexample-search budget.
	refuteBudget = 16
	// serveSources is how many distinct round streams a serve run cycles
	// through; serve-warm writes stores for each in its untimed cold pass.
	serveSources = 3
)

// topology is an in-process cluster: a router over shards, each an HTTP
// server with a durable store on its own directory.
type topology struct {
	shards   []*server.Server
	backends []*httptest.Server
	router   *cluster.Router
	front    *httptest.Server
}

func shardID(i int) string { return "s" + strconv.Itoa(i+1) }

func boot(cat *schema.Catalog, dirs []string) (*topology, error) {
	t := &topology{}
	rcfg := cluster.Config{Catalog: cat, ProbeInterval: -1, ReprobeBase: -1}
	for i, dir := range dirs {
		s, err := server.New(server.Config{
			Catalog:      cat,
			ShardID:      shardID(i),
			StorePath:    dir,
			RefuteBudget: refuteBudget,
		})
		if err != nil {
			t.close()
			return nil, err
		}
		ts := httptest.NewServer(s.Handler())
		t.shards = append(t.shards, s)
		t.backends = append(t.backends, ts)
		rcfg.Shards = append(rcfg.Shards, cluster.Shard{ID: shardID(i), URL: ts.URL})
	}
	t.router = cluster.NewRouter(rcfg)
	t.front = httptest.NewServer(t.router.Handler())
	return t, nil
}

// close stops the router and the shards; shard shutdown flushes and closes
// the stores.
func (t *topology) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var err error
	if t.front != nil {
		t.front.Close()
		err = t.router.Shutdown(ctx)
	}
	for i, ts := range t.backends {
		ts.Close()
		if e := t.shards[i].Shutdown(ctx); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// verifyReply is the part of the /v1/verify response the benchmark reads.
type verifyReply struct {
	Verdict   string          `json:"verdict"`
	Shard     string          `json:"shard"`
	TimedOut  bool            `json:"timed_out"`
	Cancelled bool            `json:"cancelled"`
	Panicked  bool            `json:"panicked"`
	Aborted   bool            `json:"watchdog_abort"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Witness   json.RawMessage `json:"witness"`
}

// drive sends the pairs to url from `clients` closed-loop clients: each
// sends its next pair only after the previous reply has arrived.
func drive(hc *http.Client, url string, pairs []sqlPair, clients int, tracers []*tracer) []outcome {
	outs := make([]outcome, len(pairs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		var tr *tracer
		if tracers != nil {
			tr = tracers[c]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.startBusy()
			defer tr.stopBusy()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pairs) {
					return
				}
				outs[i] = send(hc, url, i, pairs[i], tr)
			}
		}()
	}
	wg.Wait()
	return outs
}

// send posts one pair. Transport errors, non-200 replies (a shed 503
// included: it is not retried) and degraded verdicts count as failed.
func send(hc *http.Client, url string, i int, p sqlPair, tr *tracer) outcome {
	out := outcome{pair: p, verdict: "error", failed: true}
	body, err := json.Marshal(server.VerifyRequest{ID: strconv.Itoa(i), SQL1: p.sql1, SQL2: p.sql2})
	if err != nil {
		return out
	}
	sp := tr.begin(layerHTTP)
	t0 := time.Now()
	resp, err := hc.Post(url+"/v1/verify", "application/json", bytes.NewReader(body))
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	out.latency = time.Since(t0)
	tr.end(sp)
	if err != nil || resp.StatusCode != http.StatusOK {
		return out
	}
	var vr verifyReply
	if json.Unmarshal(data, &vr) != nil {
		return out
	}
	out.verdict, out.shard, out.elapsedMS = vr.Verdict, vr.Shard, vr.ElapsedMS
	out.failed = vr.TimedOut || vr.Cancelled || vr.Panicked || vr.Aborted
	if len(vr.Witness) > 0 && string(vr.Witness) != "null" {
		// An undecodable witness stays nil, which the oracle counts as a
		// refutation without a witness.
		out.witness, _ = refute.Decode(vr.Witness)
	}
	return out
}

// removeAll deletes a scratch directory; a failure only leaves litter
// inside the run directory, which is removed as a whole at exit.
func removeAll(dir string) { _ = os.RemoveAll(dir) }

// serveBench holds what every round of a serve run shares.
type serveBench struct {
	cfg  config
	cat  *schema.Catalog // the oracle's; each round boots on its own
	hc   *http.Client
	dir  string // this run's scratch directory
	ndir int
}

// newDirs makes one fresh, empty store directory per shard.
func (sb *serveBench) newDirs() ([]string, error) {
	sb.ndir++
	var dirs []string
	for i := 0; i < shardCount; i++ {
		d := filepath.Join(sb.dir, fmt.Sprintf("r%d", sb.ndir), shardID(i))
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		dirs = append(dirs, d)
	}
	return dirs, nil
}

// copyDirs copies the stores in src into fresh directories, so a warm
// round leaves the stores the cold pass wrote unchanged.
func (sb *serveBench) copyDirs(src []string) ([]string, error) {
	dst, err := sb.newDirs()
	if err != nil {
		return nil, err
	}
	for i := range src {
		entries, err := os.ReadDir(src[i])
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if !e.Type().IsRegular() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(src[i], e.Name()))
			if err != nil {
				return nil, err
			}
			if err := os.WriteFile(filepath.Join(dst[i], e.Name()), data, 0o644); err != nil {
				return nil, err
			}
		}
	}
	return dst, nil
}

// roundStream is one round's input, the catalog its shards boot with, and
// the time making both took.
type roundStream struct {
	cat   *schema.Catalog
	pairs []sqlPair
	gen   time.Duration
	dirs  []string // serve-warm: the stores its cold pass wrote
}

// stream makes round stream k from scratch: the catalog, the Calcite
// pairs the plan builder accepts, and the production pairs. All of it is
// part of set-up.
func (sb *serveBench) stream(k int) roundStream {
	t0 := time.Now()
	cat := serveCatalog()
	pairs := serveRound(calcitePairs(cat), k, sb.cfg.seed, sb.cfg.scale)
	return roundStream{cat: cat, pairs: pairs, gen: time.Since(t0)}
}

// roundRun is what one round on a fresh cluster produced.
type roundRun struct {
	outs      []outcome
	setup     time.Duration
	heap      float64
	delta     clusterDelta
	failovers int
}

// runRound boots a fresh cluster on dirs (set-up), drives the stream
// through it (timed into m), reads the router's failover count, and shuts
// the cluster down. With tracers set it also scrapes the cluster before
// and after the timed region. With keepHeap it measures the live heap the
// cluster holds at the end of the round: the heap before shutdown minus
// the heap before boot.
func (sb *serveBench) runRound(rs roundStream, dirs []string, m *meter, tracers []*tracer, keepHeap bool) (roundRun, error) {
	var rr roundRun
	var base float64
	if keepHeap {
		base = liveHeapMB()
	}
	t0 := time.Now()
	topo, err := boot(rs.cat, dirs)
	if err != nil {
		return rr, err
	}
	rr.setup = rs.gen + time.Since(t0)
	fail := func(err error) (roundRun, error) {
		topo.close()
		return rr, err
	}
	var before clusterScrape
	if tracers != nil {
		if before, err = scrapeCluster(sb.hc, topo); err != nil {
			return fail(err)
		}
	}
	u := readUsage()
	rr.outs = drive(sb.hc, topo.front.URL, rs.pairs, sb.cfg.workers, tracers)
	m.span(u)
	if tracers != nil {
		after, err := scrapeCluster(sb.hc, topo)
		if err != nil {
			return fail(err)
		}
		rr.delta = after.sub(before)
	}
	if keepHeap {
		rr.heap = liveHeapMB() - base
	}
	router, err := getText(sb.hc, topo.front.URL+"/metrics")
	if err != nil {
		return fail(err)
	}
	for k, v := range router {
		if strings.HasPrefix(k, "spes_router_failover_pairs_total") {
			rr.failovers += int(v)
		}
	}
	sb.hc.CloseIdleConnections()
	return rr, topo.close()
}

// runServe runs serve-cold (warm=false) or serve-warm: closed-loop
// POST /v1/verify through an in-process router onto in-process shards,
// one fresh cluster per round, cycling through serveSources round streams.
// With cfg.trace every round runs twice, untraced and then traced; the
// traced one is scraped, and the first traced round is replayed stage by
// stage against the stores it was served from.
func runServe(cfg config, warm bool) (*report, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer removeAll(dir)
	sb := &serveBench{
		cfg: cfg,
		cat: serveCatalog(),
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: cfg.workers,
			MaxConnsPerHost:     cfg.workers,
		}},
		dir: dir,
	}
	defer sb.hc.CloseIdleConnections()

	// streamFor yields round i's stream and the store directories it runs
	// on: fresh empty ones when cold; when warm, fresh copies of the stores
	// an untimed cold pass wrote for the stream.
	var sources []roundStream
	if warm {
		for k := 0; k < serveSources; k++ {
			rs := sb.stream(k)
			if rs.dirs, err = sb.newDirs(); err != nil {
				return nil, err
			}
			var discard meter
			if _, err := sb.runRound(rs, rs.dirs, &discard, nil, false); err != nil {
				return nil, err
			}
			sources = append(sources, rs)
		}
	}
	streamFor := func(i int) (roundStream, []string, error) {
		if !warm {
			rs := sb.stream(i % serveSources)
			dirs, err := sb.newDirs()
			return rs, dirs, err
		}
		rs := sources[i%len(sources)]
		dirs, err := sb.copyDirs(rs.dirs)
		return rs, dirs, err
	}

	t := newTally(cfg, serveSources, newOracle(sb.cat, cfg.seed))
	st := &serveTrace{prof: newProfile()}
	var heap []float64
	for !t.done() {
		rs, dirs, err := streamFor(t.input())
		if err != nil {
			return nil, err
		}
		var tracers []*tracer
		if t.tracedStep() {
			tracers = make([]*tracer, cfg.workers)
			for k := range tracers {
				tracers[k] = &tracer{}
			}
		}
		rr, err := sb.runRound(rs, dirs, t.meter(), tracers, !cfg.trace)
		if err != nil {
			return nil, err
		}
		t.setup = append(t.setup, rr.setup.Seconds())
		heap = append(heap, rr.heap)
		t.failovers += rr.failovers
		if tracers != nil {
			st.round(rr, tracers, rs)
		}
		t.add(rr.outs)
		removeAll(filepath.Dir(dirs[0]))
	}
	if !cfg.trace {
		t.heapMB = median(heap)
		return t.report(), nil
	}
	return st.report(sb, t, warm)
}

// serveTrace collects what the traced rounds of a serve run measure.
type serveTrace struct {
	prof        *profile
	delta       clusterDelta
	rounds      int
	engineMS    float64 // the shards' elapsed_ms, summed
	replayRound []outcome
	replayDirs  []string // warm: the stores the replayed round started from
}

func (st *serveTrace) round(rr roundRun, tracers []*tracer, rs roundStream) {
	for _, tr := range tracers {
		st.prof.add(tr)
	}
	st.delta.add(rr.delta)
	st.rounds++
	for _, o := range rr.outs {
		st.engineMS += o.elapsedMS
	}
	if st.replayRound == nil {
		st.replayRound, st.replayDirs = rr.outs, rs.dirs
	}
}

// report replays the first traced round stage by stage and turns the run
// into the per-layer report. Cold: the replay's stores start empty, so
// verdicts and witnesses are appended. Warm: fresh copies of the stores
// the cold pass wrote, so they are read.
func (st *serveTrace) report(sb *serveBench, t *tally, warm bool) (*report, error) {
	rp := newReplayer(sb.cat, refuteBudget)
	var dirs []string
	var err error
	if st.replayDirs != nil {
		dirs, err = sb.copyDirs(st.replayDirs)
	} else {
		dirs, err = sb.newDirs()
	}
	if err != nil {
		return nil, err
	}
	for i, d := range dirs {
		if err := rp.openStore(shardID(i), d); err != nil {
			return nil, err
		}
	}
	for _, o := range st.replayRound {
		if o.verdict != "unsupported" {
			rp.pair(o.pair.sql1, o.pair.sql2, o.shard)
		}
	}
	if err := rp.close(); err != nil {
		return nil, err
	}

	lm := zeroLayers()
	rprof := rp.replayLayers(lm, len(st.replayRound))
	n := float64(t.tracedPairs)
	delta := st.delta
	clientMS := meanMS(t.tracedLat)
	requestMS := 1000 * frac(delta.reqSum, delta.reqCount)
	engineMS := st.engineMS / n
	lm["sqlparser.parse_ms"] = rprof.perCall(layerParse) / 2
	lm["plan.build_ms"] = rprof.perCall(layerBuild) / 2
	lm["engine.verify_ms"] = engineMS
	e := delta.eng
	lm["engine.dedupe_frac"] = frac(float64(e.Deduped), float64(e.Pairs))
	lm["engine.norm_memo_hit_frac"] = frac(float64(e.NormHits), float64(e.NormHits+e.NormMisses))
	lm["engine.obligation_hit_frac"] = frac(float64(e.ObligationHits), float64(e.ObligationHits+e.ObligationMisses))
	engines := float64(st.rounds * shardCount)
	lm["fol.term_nodes"] = float64(e.TermNodes) / engines
	lm["fol.interner_epochs"] = float64(e.InternerEpochs) / engines
	lm["refute.refuted_frac"] = float64(t.refuted) / float64(t.pairs)
	lm["store.hit_frac"] = frac(float64(e.StoreHits), float64(e.StoreHits+e.StoreMisses))
	lm["store.appends"] = delta.storeAppends / n
	lm["store.bytes_per_pair"] = delta.storeBytes / n
	lm["server.request_ms"] = requestMS
	lm["server.coalesced"] = delta.coalesced
	lm["server.rejected"] = delta.rejected
	lm["server.witness_hits"] = float64(e.WitnessHits) / n
	lm["cluster.overhead_ms"] = percentileMS(t.tracedLat, 0.5) - 1000*delta.reqQuantile(0.5)
	lm["cluster.forward_retries"] = delta.retries
	lm["cluster.failovers"] = delta.failovers
	lm["cluster.shard_pairs_max_over_mean"] = maxOverMean(delta.shardPairs)
	runtimeLayers(lm, t.traced, n)
	lm["trace.overhead_frac"] = t.overheadFrac()
	lm["trace.unattributed_frac"] = unattributed(st.prof, rprof)

	rep := t.base(lm)
	rep.record["traced_pairs"] = t.tracedPairs
	rep.record["untraced_pairs"] = t.pairs - t.tracedPairs
	rep.record["replayed_pairs"] = rp.pairs
	rep.notes = append(rep.notes, "self-time shares, staged replay: "+formatShares(rprof))
	if !warm {
		// Per pair, in ms: the replay's layers (its self time over the
		// pairs it stands for), the shard's own request handling outside
		// the engine, and the router plus the HTTP hops.
		per := map[string]float64{
			"server":  requestMS - engineMS,
			"cluster": clientMS - requestMS,
		}
		for l, d := range rprof.self {
			per[l] = ms(d) / float64(len(st.replayRound))
		}
		solve := per[layerVerify] + per[layerRefute]
		largest := true
		var parts []string
		for _, l := range sortedKeys(per) {
			parts = append(parts, fmt.Sprintf("%s %.3f", l, per[l]))
			if l != layerVerify && l != layerRefute && per[l] >= solve {
				largest = false
			}
		}
		total := 0.0
		for _, v := range per {
			total += v
		}
		rep.notes = append(rep.notes,
			"self time per pair (ms), replay layers with server and cluster: "+strings.Join(parts, ", "),
			prediction("verify+refute is the largest self-time share, server and cluster included", frac(solve, total), largest))
	}
	return rep, nil
}

func maxOverMean(xs []float64) float64 {
	var sum, top float64
	for _, x := range xs {
		sum += x
		top = math.Max(top, x)
	}
	return frac(top, sum/float64(len(xs)))
}

// promText is a parsed Prometheus text exposition: series -> value.
type promText map[string]float64

func getText(hc *http.Client, url string) (promText, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	out := promText{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

func getStats(hc *http.Client, url string) (server.StatsResponse, error) {
	var st server.StatsResponse
	resp, err := hc.Get(url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET %s/v1/stats: status %d", url, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// clusterScrape is the cluster's /metrics and /v1/stats at one moment.
type clusterScrape struct {
	shards []promText
	stats  []server.StatsResponse
	router promText
}

func scrapeCluster(hc *http.Client, t *topology) (clusterScrape, error) {
	var cs clusterScrape
	var err error
	for _, b := range t.backends {
		m, err := getText(hc, b.URL+"/metrics")
		if err != nil {
			return cs, err
		}
		st, err := getStats(hc, b.URL)
		if err != nil {
			return cs, err
		}
		cs.shards = append(cs.shards, m)
		cs.stats = append(cs.stats, st)
	}
	cs.router, err = getText(hc, t.front.URL+"/metrics")
	return cs, err
}

// clusterDelta is what the cluster counted between two scrapes, summed
// over shards; term nodes and interner epochs are end-of-round levels.
type clusterDelta struct {
	reqSum, reqCount float64
	reqBuckets       map[float64]float64 // upper bound -> cumulative count
	coalesced        float64
	rejected         float64
	eng              engineCounts
	storeAppends     float64
	storeBytes       float64
	retries          float64
	failovers        float64
	shardPairs       []float64
}

const reqHist = "spes_request_seconds"

func (a clusterScrape) sub(b clusterScrape) clusterDelta {
	d := clusterDelta{reqBuckets: map[float64]float64{}}
	for i := range a.shards {
		m, o := a.shards[i], b.shards[i]
		d.reqSum += m[reqHist+"_sum"] - o[reqHist+"_sum"]
		d.reqCount += m[reqHist+"_count"] - o[reqHist+"_count"]
		for k, v := range m {
			switch {
			case strings.HasPrefix(k, reqHist+`_bucket{le="`):
				le := strings.TrimSuffix(strings.TrimPrefix(k, reqHist+`_bucket{le="`), `"}`)
				ub := math.Inf(1)
				if le != "+Inf" {
					ub, _ = strconv.ParseFloat(le, 64)
				}
				d.reqBuckets[ub] += v - o[k]
			case strings.HasPrefix(k, "spes_rejected_total"):
				d.rejected += v - o[k]
			}
		}
		d.coalesced += m["spes_coalesced_total"] - o["spes_coalesced_total"]
		d.eng.add(a.stats[i].Engine, b.stats[i].Engine)
		if s, p := a.stats[i].Store, b.stats[i].Store; s != nil && p != nil {
			d.storeAppends += float64(s.Appends - p.Appends)
			d.storeBytes += float64(s.Bytes - p.Bytes)
		}
		key := `spes_router_pairs_total{shard="` + shardID(i) + `"}`
		d.shardPairs = append(d.shardPairs, a.router[key]-b.router[key])
	}
	d.retries = a.router["spes_router_shed_retry_attempts_total"] - b.router["spes_router_shed_retry_attempts_total"]
	d.failovers = a.router["spes_router_failover_events_total"] - b.router["spes_router_failover_events_total"]
	return d
}

func (d *clusterDelta) add(o clusterDelta) {
	d.reqSum += o.reqSum
	d.reqCount += o.reqCount
	if d.reqBuckets == nil {
		d.reqBuckets = map[float64]float64{}
	}
	for k, v := range o.reqBuckets {
		d.reqBuckets[k] += v
	}
	d.coalesced += o.coalesced
	d.rejected += o.rejected
	d.eng.sum(o.eng)
	d.storeAppends += o.storeAppends
	d.storeBytes += o.storeBytes
	d.retries += o.retries
	d.failovers += o.failovers
	if d.shardPairs == nil {
		d.shardPairs = make([]float64, len(o.shardPairs))
	}
	for i, v := range o.shardPairs {
		d.shardPairs[i] += v
	}
}

// reqQuantile estimates a quantile of the shards' request time in seconds
// from the histogram buckets, interpolating linearly inside a bucket.
func (d *clusterDelta) reqQuantile(q float64) float64 {
	bounds := make([]float64, 0, len(d.reqBuckets))
	for ub := range d.reqBuckets {
		bounds = append(bounds, ub)
	}
	sort.Float64s(bounds)
	total := d.reqBuckets[math.Inf(1)]
	rank := q * total
	lo, below := 0.0, 0.0
	for _, ub := range bounds {
		c := d.reqBuckets[ub]
		if c >= rank {
			if math.IsInf(ub, 1) {
				return lo
			}
			return lo + (ub-lo)*frac(rank-below, c-below)
		}
		lo, below = ub, c
	}
	return lo
}

// engineCounts is the part of engine snapshots the traced run reports.
type engineCounts struct {
	Pairs, Deduped                   int64
	NormHits, NormMisses             int64
	ObligationHits, ObligationMisses int64
	StoreHits, StoreMisses           int64
	WitnessHits                      int64
	TermNodes, InternerEpochs        int64
}

// add adds the counts between two snapshots of one engine.
func (c *engineCounts) add(a, b engine.StatsSnapshot) {
	c.sum(engineCounts{
		Pairs:            a.Pairs - b.Pairs,
		Deduped:          a.Deduped - b.Deduped,
		NormHits:         a.NormHits - b.NormHits,
		NormMisses:       a.NormMisses - b.NormMisses,
		ObligationHits:   a.ObligationHits - b.ObligationHits,
		ObligationMisses: a.ObligationMisses - b.ObligationMisses,
		StoreHits:        a.StoreHits - b.StoreHits,
		StoreMisses:      a.StoreMisses - b.StoreMisses,
		WitnessHits:      a.WitnessHits - b.WitnessHits,
		TermNodes:        a.TermNodes,
		InternerEpochs:   a.InternerEpochs,
	})
}

func (c *engineCounts) sum(o engineCounts) {
	c.Pairs += o.Pairs
	c.Deduped += o.Deduped
	c.NormHits += o.NormHits
	c.NormMisses += o.NormMisses
	c.ObligationHits += o.ObligationHits
	c.ObligationMisses += o.ObligationMisses
	c.StoreHits += o.StoreHits
	c.StoreMisses += o.StoreMisses
	c.WitnessHits += o.WitnessHits
	c.TermNodes += o.TermNodes
	c.InternerEpochs += o.InternerEpochs
}
