package main

// serve-mixed: an in-process memserve on loopback, driven as a closed
// loop by one client that waits for each answer before it sends the
// next query, as a compiler pass would. (Two clients on the two-CPU
// host spread qps and latency 8-16% from run to run, one client 5-6%.)
// Setup sweeps the planner grids of core.DefaultMeasure into a fresh
// store, which is the store memserve serves from. A round sends every
// query of a fixed pool once, in an order drawn from the seed.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/units"
)

// serveCopyWS replaces core.DefaultMeasure's 8 MB copy and transfer
// working set in setup: at 8 MB one setup simulates for about 21 s on
// two workers, at 256 KB for about 4 s. The load surface, the only
// artifact /v1/bandwidth serves from, keeps the default grid.
const serveCopyWS = 256 * units.KB

// serveMeasure is the grid setup sweeps.
func serveMeasure() core.MeasureOptions {
	opt := core.DefaultMeasure()
	opt.CopyWS = serveCopyWS
	return opt
}

// spanHeader carries the client span's ID to the handler wrapper, so a
// handler span's parent is the request that caused it.
const spanHeader = "X-Perfbench-Span"

// query is one item of the pool.
type query struct {
	kind  string // "bandwidth", "batch" or "plan"
	path  string
	body  []byte
	elems int // answers it counts: 1, or the batch length
	// single is set for single bandwidth queries, plan for plan
	// queries; the replays use them.
	single bwQuery
	plan   *serve.PlanRequest
}

// bwQuery is one bandwidth query in typed form, for the replays.
type bwQuery struct {
	machine, pattern, mode string
	ws                     units.Bytes
	stride                 int
}

func (q bwQuery) request() serve.BandwidthRequest {
	return serve.BandwidthRequest{Machine: q.machine, Pattern: q.pattern, Mode: q.mode, WS: serve.Size(q.ws), Stride: q.stride}
}

// Pool shape: 240 single queries, poolBatches batches of 64 elements
// drawn from them, and planner queries. The singles and every batch
// answer with the confidence mix measured on memserve under closed-loop traffic
// over a store warmed by core.Measure — about 45% exact, 30%
// interpolated and 25% analytic — so the mix is synthetic but
// weights the three answer paths as that traffic did. Two thirds of
// the analytic singles are transfers, which the store never holds as
// surfaces; the rest are loads off the grid's hull or across a regime
// edge.
const poolBatches = 6

// poolMix is the number of exact, interpolated and analytic answers
// among the singles and within each batch: 108/72/60 and 29/19/16.
var poolMix = map[string][2]int{
	"exact":        {108, 29},
	"interpolated": {72, 19},
	"analytic":     {60, 16},
}

// servePool builds the fixed query pool. Its generator seed is fixed
// because reference.json holds the digest of every answer in it; the
// run's seed only orders the pool.
func servePool() ([]query, error) {
	rng := rand.New(rand.NewSource(1997))
	grid := core.DefaultMeasure()
	machines := []string{"8400", "t3d", "t3e"}
	models := map[string]*analytic.Model{}
	for k, cal := range calibrations() {
		models[k] = analytic.New(cal)
	}
	logWS := func(lo, hi units.Bytes) units.Bytes {
		// Log-uniform in [lo, hi), rounded down to a whole word.
		f := float64(lo) * math.Pow(2, rng.Float64()*math.Log2(float64(hi)/float64(lo)))
		return units.Bytes(f) / units.Word * units.Word
	}
	var tags []string
	for _, c := range sortedKeys(poolMix) {
		for k := 0; k < poolMix[c][0]; k++ {
			tags = append(tags, c)
		}
	}
	rng.Shuffle(len(tags), func(a, b int) { tags[a], tags[b] = tags[b], tags[a] })

	var singles []bwQuery
	byTag := map[string][]bwQuery{}
	nAnalytic := 0
	for i, want := range tags {
		q := bwQuery{machine: machines[i%len(machines)], pattern: "load"}
		switch want {
		case "exact":
			q.ws = grid.WorkingSets[rng.Intn(len(grid.WorkingSets))]
			q.stride = grid.Strides[rng.Intn(len(grid.Strides))]
		case "interpolated":
			for q.ws == 0 || confidence(q, grid, models[q.machine]) != want {
				q.ws = logWS(grid.WorkingSets[0], grid.WorkingSets[len(grid.WorkingSets)-1])
				q.stride = 1 + rng.Intn(grid.Strides[len(grid.Strides)-1])
			}
		default:
			nAnalytic++
			if nAnalytic%3 == 0 {
				for q.ws == 0 || confidence(q, grid, models[q.machine]) != want {
					q.ws = logWS(units.KB/2, 64*units.MB)
					q.stride = 1 + rng.Intn(192)
				}
				break
			}
			q.pattern, q.mode = "transfer", "fetch"
			if q.machine != "8400" && rng.Intn(2) == 0 {
				q.mode = "deposit" // the 8400 has no deposit
			}
			q.ws = logWS(units.KB, 16*units.MB)
			q.stride = 1 + rng.Intn(64)
		}
		if got := confidence(q, grid, models[q.machine]); got != want {
			return nil, fmt.Errorf("pool query %+v answers %s, want %s", q, got, want)
		}
		singles = append(singles, q)
		byTag[want] = append(byTag[want], q)
	}

	var pool []query
	for _, q := range singles {
		body, err := json.Marshal(q.request())
		if err != nil {
			return nil, err
		}
		pool = append(pool, query{kind: "bandwidth", path: "/v1/bandwidth", body: body, elems: 1, single: q})
	}
	for b := 0; b < poolBatches; b++ {
		var req serve.BatchRequest
		for _, c := range sortedKeys(poolMix) {
			from := byTag[c]
			for k := 0; k < poolMix[c][1]; k++ {
				req.Queries = append(req.Queries, from[rng.Intn(len(from))].request())
			}
		}
		rng.Shuffle(len(req.Queries), func(a, b int) { req.Queries[a], req.Queries[b] = req.Queries[b], req.Queries[a] })
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		pool = append(pool, query{kind: "batch", path: "/v1/bandwidth/batch", body: body, elems: len(req.Queries)})
	}
	for _, m := range machines {
		for _, nb := range []units.Bytes{64 * units.KB, units.MB} {
			for _, stride := range []int{16, 512} {
				req := &serve.PlanRequest{Machine: m, Bytes: serve.Size(nb), Stride: stride}
				body, err := json.Marshal(req)
				if err != nil {
					return nil, err
				}
				pool = append(pool, query{kind: "plan", path: "/v1/plan", body: body, elems: 1, plan: req})
			}
		}
	}
	return pool, nil
}

type serveWorkload struct {
	dir    string
	pool   []query
	chars  map[string]*core.Characterization
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	// tr is the tracer of the running round, read by the handler
	// wrapper on the server's goroutines.
	tr atomic.Pointer[tracer]

	measureS []float64 // core.Measure seconds of each setup

	// Samples of the traced rounds.
	mu        sync.Mutex
	handlerUS map[string][]float64 // handler time by endpoint
	clientUS  []float64            // client latency of single queries
	conf      map[string]int64     // answers by confidence
}

// confidence is the tag store.Lookup gives q over the load surface
// core.Measure stores on grid: every cell is simulated, so a query on
// the grid is exact, one inside it is interpolated when it and its
// bracketing working sets share an analytic regime, and any other
// query, transfers included, is analytic.
func confidence(q bwQuery, grid core.MeasureOptions, model *analytic.Model) string {
	wsLo, wsHi, okWS := around(grid.WorkingSets, q.ws)
	stLo, stHi, okSt := around(grid.Strides, q.stride)
	switch {
	case q.pattern != "load" || !okWS || !okSt:
		return "analytic"
	case wsLo == wsHi && stLo == stHi:
		return "exact"
	case model.Regime(wsLo) == model.Regime(q.ws) && model.Regime(wsHi) == model.Regime(q.ws):
		return "interpolated"
	}
	return "analytic"
}

// around returns the grid values that bracket v on an ascending axis,
// equal when v is on it; ok is false outside the axis.
func around[T units.Bytes | int](axis []T, v T) (lo, hi T, ok bool) {
	for i, x := range axis {
		if x >= v {
			if x == v {
				return x, x, true
			}
			if i == 0 {
				return 0, 0, false
			}
			return axis[i-1], x, true
		}
	}
	return 0, 0, false
}

func (w *serveWorkload) setup(e *env, dir string) error {
	if w.pool == nil {
		pool, err := servePool()
		if err != nil {
			return err
		}
		w.pool = pool
	}
	w.dir = dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	w.chars = map[string]*core.Characterization{}
	pools := report.Pools(e.workers)
	t0 := time.Now()
	for _, k := range report.PoolNames(pools) {
		pools[k].SetStore(st)
		w.chars[k] = core.Measure(pools[k], serveMeasure())
	}
	w.measureS = append(w.measureS, time.Since(t0).Seconds())

	srv, err := serve.New(serve.Config{StoreDir: dir})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.wrap(srv.Handler())}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	return nil
}

// wrap times the server's handler from outside in traced rounds.
func (w *serveWorkload) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		tr := w.tr.Load()
		if tr == nil {
			h.ServeHTTP(rw, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		point, _ := strconv.ParseInt(r.Header.Get(spanHeader+"-Point"), 10, 64)
		t0 := time.Now()
		h.ServeHTTP(rw, r)
		t1 := time.Now()
		kind := endpoint(r.URL.Path)
		tr.add(tr.id(), parent, point, "serve.Server.Handler", kind, t0, t1)
		w.mu.Lock()
		w.handlerUS[kind] = append(w.handlerUS[kind], float64(t1.Sub(t0).Nanoseconds())/1e3)
		w.mu.Unlock()
	})
}

func endpoint(path string) string {
	switch path {
	case "/v1/bandwidth":
		return "bandwidth"
	case "/v1/bandwidth/batch":
		return "batch"
	case "/v1/plan":
		return "plan"
	}
	return "other"
}

func (w *serveWorkload) round(e *env, rng *rand.Rand) error {
	if e.tr != nil && w.handlerUS == nil {
		w.handlerUS, w.conf = map[string][]float64{}, map[string]int64{}
	}
	w.tr.Store(e.tr)
	defer w.tr.Store(nil)
	for _, idx := range rng.Perm(len(w.pool)) {
		if err := w.send(e, idx); err != nil {
			return err
		}
	}
	return nil
}

// send asks one pool query, checks the answer and counts it. Only a
// transport failure is returned as an error; a non-2xx status or a
// wrong answer counts against the query.
func (w *serveWorkload) send(e *env, idx int) error {
	q := w.pool[idx]
	key := fmt.Sprintf("q%03d", idx)
	req, err := http.NewRequest(http.MethodPost, w.url+q.path, bytes.NewReader(q.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	var id, point int64
	if e.tr != nil {
		id, point = e.tr.id(), e.tr.point()
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		req.Header.Set(spanHeader+"-Point", strconv.FormatInt(point, 10))
	}
	t0 := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		return fmt.Errorf("%s: %w", q.path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("%s: %w", q.path, err)
	}
	e.tr.add(id, e.round, point, "http.Client.Do", q.kind, t0, t1)
	e.chk.bytes(key, body)
	if resp.StatusCode != http.StatusOK {
		e.errs += int64(q.elems)
		return nil
	}
	e.ops += int64(q.elems)
	us := float64(t1.Sub(t0).Nanoseconds()) / 1e3
	// Latency percentiles rank single queries, as a compiler pass
	// asks them; batches and plans count toward ops_per_s.
	e.timed(key, us, int64(q.elems))
	if q.kind == "bandwidth" {
		e.latency(key, us)
	}
	if e.tr == nil || q.kind == "plan" {
		return nil
	}
	if q.kind == "bandwidth" {
		w.clientUS = append(w.clientUS, us)
	}
	return countConfidence(q.kind, body, w.conf)
}

// countConfidence tallies the confidence tags of one answer.
func countConfidence(kind string, body []byte, conf map[string]int64) error {
	if kind == "bandwidth" {
		var r serve.BandwidthResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		conf[r.Confidence]++
		return nil
	}
	var b serve.BatchResponse
	if err := json.Unmarshal(body, &b); err != nil {
		return err
	}
	for _, r := range b.Results {
		if r.Result != nil {
			conf[r.Result.Confidence]++
		}
	}
	return nil
}

func (w *serveWorkload) layers(e *env, m metrics) error {
	// The wrapper records a handler's time after the client may
	// already hold the answer, so take the lock.
	w.mu.Lock()
	bwUS := w.handlerUS["bandwidth"]
	m.set("serve.handler_us.bandwidth.p50", quantile(bwUS, 0.5), "us")
	m.set("serve.handler_us.bandwidth.p99", quantile(bwUS, 0.99), "us")
	m.set("serve.handler_us.batch.p50", median(w.handlerUS["batch"]), "us")
	m.set("serve.handler_us.plan.p50", median(w.handlerUS["plan"]), "us")
	w.mu.Unlock()
	m.set("serve.transport_us.p50", median(w.clientUS)-median(bwUS), "us")
	var answers int64
	for _, v := range w.conf {
		answers += v
	}
	for _, c := range []string{"exact", "interpolated", "analytic"} {
		m.set("serve."+c+"_frac", ratio(float64(w.conf[c]), float64(answers)), "ratio")
	}
	m.set("core.measure_s", median(w.measureS), "s")
	if err := w.replayPlan(m); err != nil {
		return err
	}
	if err := w.replayStore(e, m); err != nil {
		return err
	}
	w.replayModel(m)
	return nil
}

// replayPlan times core.Characterization.Plan on the setup's
// characterizations for every plan query of the pool.
func (w *serveWorkload) replayPlan(m metrics) error {
	var us []float64
	for rep := 0; rep < 50; rep++ {
		for _, q := range w.pool {
			if q.plan == nil {
				continue
			}
			c := w.chars[q.plan.Machine]
			if c == nil {
				return fmt.Errorf("no characterization for %q", q.plan.Machine)
			}
			r := core.Redistribution{Bytes: units.Bytes(q.plan.Bytes), RemoteStride: q.plan.Stride}
			t0 := time.Now()
			c.Plan(r)
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	m.set("core.plan_us", median(us), "us")
	return nil
}

// calibrations returns each served machine's calibration.
func calibrations() map[string]machine.Calibration {
	cals := map[string]machine.Calibration{}
	for k, f := range report.Factories() {
		cals[k] = f().Calibration()
	}
	return cals
}

func (q bwQuery) storeArgs() (store.Pattern, machine.Mode) {
	if q.pattern == "load" {
		return store.PatternLoad, machine.Fetch
	}
	if q.mode == "deposit" {
		return store.PatternTransfer, machine.Deposit
	}
	return store.PatternTransfer, machine.Fetch
}

// replayStore times store.Lookup over the pool's single queries on a
// freshly opened store, and measures the store's hit rate over a warm
// core.Measure pass — which on the 8400 schedules the deposit curve's
// doomed points and misses its key on every pass.
func (w *serveWorkload) replayStore(e *env, m metrics) error {
	cals := calibrations()
	st, err := store.Open(w.dir, store.Options{})
	if err != nil {
		return err
	}
	var us []float64
	before := st.Stats()
	for _, q := range w.pool {
		if q.kind != "bandwidth" {
			continue
		}
		b := q.single
		p, mode := b.storeArgs()
		t0 := time.Now()
		if _, err := st.Lookup(cals[b.machine], p, mode, b.ws, b.stride); err != nil {
			return err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	after := st.Stats()
	m.set("store.lookup_us.p50", quantile(us, 0.5), "us")
	m.set("store.lookup_us.p99", quantile(us, 0.99), "us")
	m.set("store.surfaces_per_lookup", ratio(float64(after.Hits()-before.Hits()), float64(len(us))), "count")

	warm, err := store.Open(w.dir, store.Options{})
	if err != nil {
		return err
	}
	pools := report.Pools(e.workers)
	for _, k := range report.PoolNames(pools) {
		pools[k].SetStore(warm)
		core.Measure(pools[k], serveMeasure())
	}
	s := warm.Stats()
	m.set("store.hit_rate", ratio(float64(s.Hits()), float64(s.Hits()+s.Misses)), "ratio")
	return nil
}

// replayModel times the closed-form model on the pool's single
// queries: analytic.Model.LoadBW and TransferBW per call.
func (w *serveWorkload) replayModel(m metrics) {
	models := map[string]*analytic.Model{}
	for k, cal := range calibrations() {
		models[k] = analytic.New(cal)
	}
	var load, transfer perCall
	for rep := 0; rep < 200; rep++ {
		for _, q := range w.pool {
			if q.kind != "bandwidth" {
				continue
			}
			b := q.single
			model := models[b.machine]
			t0 := time.Now()
			if b.pattern == "load" {
				model.LoadBW(b.ws, b.stride)
				load.d += time.Since(t0)
				load.calls++
				continue
			}
			_, mode := b.storeArgs()
			// The pool asks no transfer the model rejects.
			_, _ = model.TransferBW(mode, b.ws, b.stride)
			transfer.d += time.Since(t0)
			transfer.calls++
		}
	}
	m.set("analytic.load_ns", load.ns(), "ns")
	m.set("analytic.transfer_ns", transfer.ns(), "ns")
}

func (w *serveWorkload) close() error {
	if w.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.client.CloseIdleConnections()
	err := w.hs.Shutdown(ctx)
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	w.hs = nil
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}
