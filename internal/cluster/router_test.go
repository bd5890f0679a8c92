package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spes/internal/corpus"
	"spes/internal/server"
)

const (
	eqSQL1 = "SELECT * FROM (SELECT * FROM EMP WHERE DEPT_ID < 9) T WHERE SALARY > 5"
	eqSQL2 = "SELECT * FROM EMP WHERE DEPT_ID < 9 AND SALARY > 5"
)

// testShard is one real spes-serve stack behind an httptest listener.
type testShard struct {
	id  string
	srv *server.Server
	ts  *httptest.Server
}

func newTestShard(t *testing.T, id string, cfg server.Config) *testShard {
	t.Helper()
	if cfg.Catalog == nil {
		cfg.Catalog = corpus.Catalog()
	}
	cfg.ShardID = id
	s, err := server.New(cfg)
	if err != nil {
		t.Fatalf("shard %s: %v", id, err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return &testShard{id: id, srv: s, ts: ts}
}

func newTestRouter(t *testing.T, shards []*testShard, mut func(*Config)) *Router {
	t.Helper()
	cfg := Config{
		Catalog:       corpus.Catalog(),
		ProbeInterval: -1, // tests drive ProbeNow themselves
		RetryAfterCap: 50 * time.Millisecond,
	}
	for _, sh := range shards {
		cfg.Shards = append(cfg.Shards, Shard{ID: sh.id, URL: sh.ts.URL})
	}
	if mut != nil {
		mut(&cfg)
	}
	rt := NewRouter(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	return rt
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.String(), err)
	}
	return v
}

// clusterBatch builds a batch of n pairs cycling through the Calcite
// corpus, so a large enough n spreads distinct fingerprints over every
// shard of a small ring.
func clusterBatch(n int) server.BatchRequest {
	pool := corpus.CalcitePairs()
	req := server.BatchRequest{}
	for i := 0; i < n; i++ {
		p := pool[i%len(pool)]
		req.Pairs = append(req.Pairs, server.BatchPairJSON{
			ID: fmt.Sprintf("p%d", i), SQL1: p.SQL1, SQL2: p.SQL2,
		})
	}
	return req
}

func verdictsOf(results []server.VerifyResponse) []string {
	out := make([]string, len(results))
	for i, r := range results {
		out[i] = r.Verdict
	}
	return out
}

// TestRouterBatchRoutesAndReassembles: a batch through a 2- and a 4-shard
// cluster returns verdicts identical, in order, to the same batch on a
// single node, with every shard doing work and per-result shard
// provenance set.
func TestRouterBatchRoutesAndReassembles(t *testing.T) {
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			single := newTestShard(t, "solo", server.Config{})
			var shards []*testShard
			for i := 0; i < n; i++ {
				shards = append(shards, newTestShard(t, string(rune('a'+i)), server.Config{}))
			}
			rt := newTestRouter(t, shards, nil)
			h := rt.Handler()

			req := clusterBatch(12 * n)

			wSingle := postJSON(t, single.srv.Handler(), "/v1/verify/batch", req)
			if wSingle.Code != 200 {
				t.Fatalf("single-node batch: %d %s", wSingle.Code, wSingle.Body.String())
			}
			ref := decode[server.BatchResponse](t, wSingle)

			w := postJSON(t, h, "/v1/verify/batch", req)
			if w.Code != 200 {
				t.Fatalf("routed batch: %d %s", w.Code, w.Body.String())
			}
			got := decode[server.BatchResponse](t, w)
			if len(got.Results) != len(req.Pairs) {
				t.Fatalf("routed batch returned %d results for %d pairs", len(got.Results), len(req.Pairs))
			}
			for i, r := range got.Results {
				if r.ID != req.Pairs[i].ID {
					t.Fatalf("result %d out of order: got ID %q want %q", i, r.ID, req.Pairs[i].ID)
				}
			}
			refV, gotV := verdictsOf(ref.Results), verdictsOf(got.Results)
			for i := range refV {
				if refV[i] != gotV[i] {
					t.Fatalf("verdict %d: cluster %q != single-node %q", i, gotV[i], refV[i])
				}
			}

			shardsUsed := map[string]int{}
			for _, r := range got.Results {
				shardsUsed[r.Shard]++
			}
			for _, sh := range shards {
				if shardsUsed[sh.id] == 0 {
					t.Fatalf("expected every shard to verify part of the batch, got %v", shardsUsed)
				}
				if p := sh.srv.Engine().Stats().Pairs; p == 0 {
					t.Fatalf("shard %s engine verified no pairs — fingerprint routing left it idle (%v)", sh.id, shardsUsed)
				}
			}
			if len(shardsUsed) != n {
				t.Fatalf("results name shards %v, want exactly the %d ring members", shardsUsed, n)
			}
		})
	}
}

// TestRouterFingerprintLocality: recurrences of the same pair always land
// on the same shard — the no-N-way-dilution property the shard key exists
// for.
func TestRouterFingerprintLocality(t *testing.T) {
	a := newTestShard(t, "a", server.Config{})
	b := newTestShard(t, "b", server.Config{})
	rt := newTestRouter(t, []*testShard{a, b}, nil)
	h := rt.Handler()

	req := server.BatchRequest{}
	for i := 0; i < 6; i++ {
		req.Pairs = append(req.Pairs, server.BatchPairJSON{
			ID: fmt.Sprintf("hot%d", i), SQL1: eqSQL1, SQL2: eqSQL2,
		})
	}
	w := postJSON(t, h, "/v1/verify/batch", req)
	if w.Code != 200 {
		t.Fatalf("batch: %d %s", w.Code, w.Body.String())
	}
	got := decode[server.BatchResponse](t, w)
	owner := got.Results[0].Shard
	for i, r := range got.Results {
		if r.Shard != owner {
			t.Fatalf("recurrence %d of an identical pair verified on %q, first on %q", i, r.Shard, owner)
		}
	}
}

// TestRouterSingleVerify: /v1/verify routes to a shard and relays its
// response — including shard provenance and, for bad SQL, the shard's 400.
func TestRouterSingleVerify(t *testing.T) {
	a := newTestShard(t, "a", server.Config{})
	b := newTestShard(t, "b", server.Config{})
	rt := newTestRouter(t, []*testShard{a, b}, nil)
	h := rt.Handler()

	w := postJSON(t, h, "/v1/verify", server.VerifyRequest{SQL1: eqSQL1, SQL2: eqSQL2})
	if w.Code != 200 {
		t.Fatalf("verify: %d %s", w.Code, w.Body.String())
	}
	resp := decode[server.VerifyResponse](t, w)
	if resp.Verdict != "equivalent" {
		t.Fatalf("verdict %q, want equivalent", resp.Verdict)
	}
	if resp.Shard != "a" && resp.Shard != "b" {
		t.Fatalf("response shard %q names no configured shard", resp.Shard)
	}

	w = postJSON(t, h, "/v1/verify", server.VerifyRequest{SQL1: "SELEC 1", SQL2: eqSQL2})
	if w.Code != 400 {
		t.Fatalf("bad SQL through the router: %d %s (want the shard's 400 relayed)", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "bad_query") {
		t.Fatalf("400 body lost the shard's error code: %s", w.Body.String())
	}
}

// TestRouterHonorsRetryAfter: a shedding shard's Retry-After value is
// respected — the router waits at least the hinted time (here capped by
// RetryAfterCap) before retrying, and the retry succeeds.
func TestRouterHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	var gap atomic.Int64
	var last atomic.Int64
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/verify/batch" {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		now := time.Now().UnixNano()
		if prev := last.Swap(now); prev != 0 {
			gap.Store(now - prev)
		}
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1") // 1s hint; router caps at RetryAfterCap
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		var req server.BatchRequest
		json.NewDecoder(r.Body).Decode(&req)
		resp := server.BatchResponse{}
		for _, p := range req.Pairs {
			resp.Results = append(resp.Results, server.VerifyResponse{ID: p.ID, Verdict: "not-proved"})
		}
		json.NewEncoder(w).Encode(resp)
	}))
	defer shed.Close()

	const capMS = 60
	rt := NewRouter(Config{
		Catalog:       corpus.Catalog(),
		Shards:        []Shard{{ID: "shed", URL: shed.URL}},
		ProbeInterval: -1,
		RetryAfterCap: capMS * time.Millisecond,
	})
	defer rt.Shutdown(context.Background())

	w := postJSON(t, rt.Handler(), "/v1/verify/batch", clusterBatch(3))
	if w.Code != 200 {
		t.Fatalf("batch after shed: %d %s", w.Code, w.Body.String())
	}
	if calls.Load() != 2 {
		t.Fatalf("shard saw %d calls, want shed-then-retry", calls.Load())
	}
	if got := time.Duration(gap.Load()); got < capMS*time.Millisecond {
		t.Fatalf("router retried after %v; must honor Retry-After up to the %dms cap", got, capMS)
	}
	if rt.retriesT.Value() == 0 {
		t.Fatal("shed retry not counted in metrics")
	}
}

// TestRouterShedFailsOverAfterBoundedRetries: a shard that never stops
// shedding is abandoned after MaxShedRetries and its pairs complete on
// the other shard — without the shedding shard being marked down.
func TestRouterShedFailsOverAfterBoundedRetries(t *testing.T) {
	var sheds atomic.Int32
	alwaysShed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sheds.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer alwaysShed.Close()
	b := newTestShard(t, "b", server.Config{})

	rt := newTestRouter(t, []*testShard{b}, func(cfg *Config) {
		cfg.Shards = append(cfg.Shards, Shard{ID: "shedder", URL: alwaysShed.URL})
		cfg.MaxShedRetries = 2
		cfg.RetryAfterCap = 10 * time.Millisecond
	})
	h := rt.Handler()

	req := clusterBatch(16)
	w := postJSON(t, h, "/v1/verify/batch", req)
	if w.Code != 200 {
		t.Fatalf("batch: %d %s", w.Code, w.Body.String())
	}
	got := decode[server.BatchResponse](t, w)
	for i, r := range got.Results {
		if r.Shard != "b" {
			t.Fatalf("result %d verified on %q; everything must have failed over to b", i, r.Shard)
		}
	}
	if rt.failoversT.Value() == 0 {
		t.Fatal("failover not counted")
	}
	// Shedding is admission pressure, not death: the shard must still be
	// in the membership as healthy (only request-scoped exclusion).
	rt.mu.Lock()
	healthy := rt.shards["shedder"].healthy
	rt.mu.Unlock()
	if !healthy {
		t.Fatal("shedding shard was marked down; 503 must not eject a live shard")
	}
}

// TestRouterFailoverOnDeadShard: killing a shard makes its pairs fail
// over to the survivor with verdicts identical to a single-node run, and
// the dead shard leaves the ring.
func TestRouterFailoverOnDeadShard(t *testing.T) {
	single := newTestShard(t, "solo", server.Config{})
	a := newTestShard(t, "a", server.Config{})
	b := newTestShard(t, "b", server.Config{})
	rt := newTestRouter(t, []*testShard{a, b}, nil)
	h := rt.Handler()

	req := clusterBatch(24)
	ref := decode[server.BatchResponse](t, postJSON(t, single.srv.Handler(), "/v1/verify/batch", req))

	// Kill b without telling the router: the next batch discovers it the
	// hard way, mid-request.
	b.ts.Close()

	w := postJSON(t, h, "/v1/verify/batch", req)
	if w.Code != 200 {
		t.Fatalf("batch with a dead shard: %d %s", w.Code, w.Body.String())
	}
	got := decode[server.BatchResponse](t, w)
	refV, gotV := verdictsOf(ref.Results), verdictsOf(got.Results)
	for i := range refV {
		if refV[i] != gotV[i] {
			t.Fatalf("verdict %d changed across failover: %q != %q", i, gotV[i], refV[i])
		}
	}
	for i, r := range got.Results {
		if r.Shard != "a" {
			t.Fatalf("result %d on %q; the survivor must own everything", i, r.Shard)
		}
	}
	if rt.failoversT.Value() == 0 {
		t.Fatal("failover not counted")
	}
	if ring := rt.ringSnapshot(); ring.Size() != 1 {
		t.Fatalf("ring size %d after a transport failure; dead shard must leave", ring.Size())
	}
}

// TestRouterAllShardsDead: with no live shard, a batch is answered with a
// 503 (not fabricated verdicts) and single verifies likewise.
func TestRouterAllShardsDead(t *testing.T) {
	a := newTestShard(t, "a", server.Config{})
	rt := newTestRouter(t, []*testShard{a}, nil)
	a.ts.Close()

	w := postJSON(t, rt.Handler(), "/v1/verify/batch", clusterBatch(4))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("batch with cluster down: %d %s (want 503)", w.Code, w.Body.String())
	}
	w = postJSON(t, rt.Handler(), "/v1/verify", server.VerifyRequest{SQL1: eqSQL1, SQL2: eqSQL2})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("verify with cluster down: %d %s (want 503)", w.Code, w.Body.String())
	}
}

// TestRouterProbeDrainsAndRestores: the prober takes a draining shard out
// of the ring and puts a recovered one back in.
func TestRouterProbeDrainsAndRestores(t *testing.T) {
	state := atomic.Value{}
	state.Store("ok")
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		st := state.Load().(string)
		code := http.StatusOK
		if st != "ok" {
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		fmt.Fprintf(w, `{"status":%q}`, st)
	}))
	defer fake.Close()
	b := newTestShard(t, "b", server.Config{})

	rt := newTestRouter(t, []*testShard{b}, func(cfg *Config) {
		cfg.Shards = append(cfg.Shards, Shard{ID: "flappy", URL: fake.URL})
	})

	ctx := context.Background()
	rt.ProbeNow(ctx)
	if got := rt.ringSnapshot().Size(); got != 2 {
		t.Fatalf("ring size %d with both shards healthy", got)
	}

	state.Store("draining")
	rt.ProbeNow(ctx)
	if got := rt.ringSnapshot().Size(); got != 1 {
		t.Fatalf("ring size %d with one shard draining", got)
	}
	rt.mu.Lock()
	drng := rt.shards["flappy"].draining
	rt.mu.Unlock()
	if !drng {
		t.Fatal("draining state not recorded")
	}

	state.Store("ok")
	rt.ProbeNow(ctx)
	if got := rt.ringSnapshot().Size(); got != 2 {
		t.Fatalf("ring size %d after recovery", got)
	}
}

// TestRouterClusterStats: /v1/cluster/stats aggregates per-shard engine
// snapshots after routed traffic.
func TestRouterClusterStats(t *testing.T) {
	a := newTestShard(t, "a", server.Config{})
	b := newTestShard(t, "b", server.Config{})
	rt := newTestRouter(t, []*testShard{a, b}, nil)
	h := rt.Handler()

	if w := postJSON(t, h, "/v1/verify/batch", clusterBatch(24)); w.Code != 200 {
		t.Fatalf("batch: %d %s", w.Code, w.Body.String())
	}

	r := httptest.NewRequest(http.MethodGet, "/v1/cluster/stats", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != 200 {
		t.Fatalf("cluster stats: %d %s", w.Code, w.Body.String())
	}
	stats := decode[ClusterStats](t, w)
	if stats.Totals.Shards != 2 {
		t.Fatalf("%d shards reporting, want 2: %s", stats.Totals.Shards, w.Body.String())
	}
	if stats.Totals.Pairs != 24 {
		t.Fatalf("aggregate pairs %d, want 24", stats.Totals.Pairs)
	}
	var perShard int64
	for _, sh := range stats.Shards {
		if sh.Engine == nil {
			t.Fatalf("shard %s reported no engine stats", sh.ID)
		}
		perShard += sh.Engine.Pairs
	}
	if perShard != stats.Totals.Pairs {
		t.Fatalf("per-shard pairs sum %d != totals %d", perShard, stats.Totals.Pairs)
	}
	if stats.Router.ForwardAttempts == 0 {
		t.Fatal("router counters missing from cluster stats")
	}

	// The router's own /metrics carries the forward counters.
	mw := httptest.NewRecorder()
	h.ServeHTTP(mw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := mw.Body.String()
	for _, want := range []string{
		"spes_router_forwards_total", "spes_router_ring_size 2",
		"spes_router_requests_total", "spes_router_pairs_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("router /metrics missing %q:\n%s", want, body)
		}
	}
}

// TestRouterValidation mirrors the shard's 400 discipline.
func TestRouterValidation(t *testing.T) {
	a := newTestShard(t, "a", server.Config{})
	rt := newTestRouter(t, []*testShard{a}, nil)
	h := rt.Handler()

	cases := []struct {
		name string
		body any
		want string
	}{
		{"empty pairs", server.BatchRequest{}, "bad_request"},
		{"missing sql", server.BatchRequest{Pairs: []server.BatchPairJSON{{SQL1: "SELECT 1"}}}, "bad_request"},
	}
	for _, tc := range cases {
		w := postJSON(t, h, "/v1/verify/batch", tc.body)
		if w.Code != 400 || !strings.Contains(w.Body.String(), tc.want) {
			t.Fatalf("%s: %d %s", tc.name, w.Code, w.Body.String())
		}
	}
	if w := postJSON(t, h, "/v1/verify", server.VerifyRequest{SQL1: eqSQL1}); w.Code != 400 {
		t.Fatalf("single verify missing sql2: %d", w.Code)
	}
	// Shard pair counts must be untouched: validation failures never
	// reach the fleet.
	if got := a.srv.Engine().Stats().Pairs; got != 0 {
		t.Fatalf("validation errors leaked %d pairs to a shard", got)
	}
}

// TestRouterReadmitsRecoveredShard pins the re-admission loop: a shard
// that dies hard (listener severed) is discovered down mid-batch, then —
// after it restarts on the SAME address under the SAME ID — the jittered
// reprobe loop puts it back in the ring without any traffic or manual
// ProbeNow, and subsequent batches route to it again.
func TestRouterReadmitsRecoveredShard(t *testing.T) {
	a := newTestShard(t, "a", server.Config{})

	// Shard b runs on a manual listener so its address survives the kill:
	// re-admission only makes sense if the reborn process is reachable at
	// the URL the router was configured with.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	b1, err := server.New(server.Config{Catalog: corpus.Catalog(), ShardID: "b"})
	if err != nil {
		t.Fatal(err)
	}
	go b1.Serve(l)

	rt := NewRouter(Config{
		Catalog:       corpus.Catalog(),
		Shards:        []Shard{{ID: "a", URL: a.ts.URL}, {ID: "b", URL: "http://" + addr}},
		ProbeInterval: -1, // only the reprobe loop may re-admit
		ReprobeBase:   10 * time.Millisecond,
		ReprobeMax:    50 * time.Millisecond,
		RetryAfterCap: 50 * time.Millisecond,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	h := rt.Handler()

	// Kill b hard and let a batch discover it: transport errors mark it
	// down and kick the reprobe loop.
	l.Close()
	{
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		b1.Shutdown(ctx)
		cancel()
	}
	if w := postJSON(t, h, "/v1/verify/batch", clusterBatch(24)); w.Code != 200 {
		t.Fatalf("batch with dead shard: %d %s", w.Code, w.Body.String())
	}
	if ring := rt.ringSnapshot(); ring.Size() != 1 {
		t.Fatalf("ring size %d after kill, want 1", ring.Size())
	}

	// While b is down the reprobe loop must be probing it, not silent.
	deadline := time.Now().Add(5 * time.Second)
	for rt.reprobes.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("reprobe loop never probed the down shard")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Rebirth on the same address (the OS may hold the port briefly).
	var l2 net.Listener
	for i := 0; ; i++ {
		l2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	b2, err := server.New(server.Config{Catalog: corpus.Catalog(), ShardID: "b"})
	if err != nil {
		t.Fatal(err)
	}
	go b2.Serve(l2)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		b2.Shutdown(ctx)
	})

	// No traffic, no ProbeNow: the backoff loop alone must re-admit it.
	for rt.ringSnapshot().Size() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("restarted shard never re-admitted (reprobes=%d)", rt.reprobes.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// And the re-admitted shard serves real traffic again.
	before := b2.Engine().Stats().Pairs
	if w := postJSON(t, h, "/v1/verify/batch", clusterBatch(24)); w.Code != 200 {
		t.Fatalf("batch after rejoin: %d %s", w.Code, w.Body.String())
	}
	if got := b2.Engine().Stats().Pairs; got == before {
		t.Fatal("re-admitted shard received no pairs")
	}
}
