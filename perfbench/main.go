// Command perfbench is the repository's gated performance benchmark.
// One invocation runs one named workload from a single process:
//
//	perfbench --workload sim-local --seed 1 --seconds 20 --trace 0
//
// It sets the workload up several times (setup_s is their median),
// then repeats the workload's fixed unit of work — a round — until
// --seconds have passed, checks every output against reference.json,
// and prints one JSON result line whose timings take each operation of
// a round at its best over the rounds, scaled to a nominal host's
// speed by a calibration loop timed between the rounds (calib.go).
// With --trace 1 it alternates untraced and traced rounds, replays
// each layer's public entry points, and prints the per-layer metrics
// instead; the spans go to a file under the build directory.
//
// Two more modes are for maintainers and are not gated:
//
//	perfbench --record    # rewrite perfbench/reference.json from this commit
//	perfbench --stages    # time each builder call of `figures -all` once
//
// See README.md for the workloads, the metrics and how to read a trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// A run builds its workload from scratch at least minSetups times, and
// more while the builds have taken less than setupBudget seconds, up
// to maxSetups; setup_s is their median, and the last build is the one
// measured. Cheap set-ups thus get enough samples for a steady median.
const (
	minSetups   = 3
	maxSetups   = 30
	setupBudget = 1.0
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line the benchmark prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup builds everything the rounds need, from scratch, under dir.
	setup(e *env, dir string) error
	// round runs the workload's fixed unit of work once against the
	// last setup, recording operations, latencies and outputs in e.
	round(e *env, rng *rand.Rand) error
	// layers runs the entry-point replays after the traced rounds and
	// sets the per-layer metrics this workload exercises.
	layers(e *env, m metrics) error
	// close releases what the last setup holds.
	close() error
}

var workloads = map[string]func() workload{
	"sim-local":    func() workload { return newSim(false) },
	"sim-remote":   func() workload { return newSim(true) },
	"serve-mixed":  func() workload { return &serveWorkload{} },
	"store-replay": func() workload { return &replayWorkload{} },
}

// env is the state one run shares with its workload.
type env struct {
	workers int
	chk     *checker
	// tr is nil in untraced rounds.
	tr *tracer
	// ops counts completed operations: grid points, answered
	// queries (batch elements counted), resolved surfaces.
	ops int64
	// errs counts operations that failed outright.
	errs int64
	// work keeps each unit of a round's work at its least host time
	// over the run's rounds, in µs, and answers how many answers it
	// gives: the best of N, as STREAM reports it, which filters out the
	// moments other tenants of the host slow it down. ops_per_s divides
	// one round's answers by the sum of these times, so they must
	// cover the round's wall clock: a whole sweep.Pool.Run, a request
	// from send to answer, a store open.
	work    map[string]float64
	answers map[string]int64
	// lat keeps each ranked operation's least latency in µs, which
	// p50_us and p99_us rank: a grid point, a single query, a surface
	// request.
	lat map[string]float64
	// round is the span ID of the running round.
	round int64
	// calibUS is the run's best calibration time so far, calibAt
	// when the last calibration ended, calibSpent the time all of
	// them took.
	calibUS    float64
	calibAt    time.Time
	calibSpent time.Duration
}

func main() {
	name := flag.String("workload", "", "workload: sim-local, sim-remote, serve-mixed or store-replay")
	seed := flag.Int64("seed", 1, "seed for the request order")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	record := flag.Bool("record", false, "rewrite reference.json from this commit and exit")
	stages := flag.Bool("stages", false, "time each builder call of `figures -all` once and exit")
	flag.Parse()

	// Sweep workers: the host's CPUs, but at most two, so that a run
	// has the same shape on a bigger host.
	workers := min(runtime.NumCPU(), 2)
	out := os.Getenv("PERFBENCH_OUT")
	if out == "" {
		out = filepath.Join(".bench_build", "perfbench")
	}
	var err error
	switch {
	case *record:
		err = recordReference(workers, out)
	case *stages:
		err = runStages(os.Stdout, workers)
	default:
		mk, ok := workloads[*name]
		if !ok {
			err = fmt.Errorf("unknown workload %q", *name)
			break
		}
		if *seconds < 1 || (*trace != 0 && *trace != 1) {
			err = fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
			break
		}
		var res result
		res, err = run(mk(), *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, workers, out)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and returns its result line.
func run(w workload, name string, seed int64, length time.Duration, withTrace bool, workers int, out string) (result, error) {
	ref, err := loadReference()
	if err != nil {
		return result{}, err
	}
	e := &env{workers: workers, chk: newChecker(ref[name])}
	scratch := filepath.Join(out, fmt.Sprintf("run-%s-%d", name, os.Getpid()))
	defer os.RemoveAll(scratch)

	e.calibrate()
	var setups []float64
	for spent := 0.0; len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups); {
		if len(setups) > 0 {
			if err := w.close(); err != nil {
				return result{}, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(e, filepath.Join(scratch, fmt.Sprint(len(setups)))); err != nil {
			return result{}, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
	}
	defer w.close()
	runtime.GC()

	rng := rand.New(rand.NewSource(seed))
	if !withTrace {
		if err := phase(w, e, rng, length); err != nil {
			return result{}, err
		}
		e.chk.complete()
		// One round's work and operations, each at its best.
		var us float64
		var answers int64
		for k, v := range e.work {
			us += v
			answers += e.answers[k]
		}
		lat := make([]float64, 0, len(e.lat))
		for _, v := range e.lat {
			lat = append(lat, v)
		}
		// Every time is reported as the nominal host's.
		f := e.hostFactor()
		fmt.Fprintf(os.Stderr, "perfbench: calibration loop %.0f µs, nominal %.0f µs: times scaled by %.4f\n",
			e.calibUS, calibNominalUS, f)
		m := metrics{}
		m.set("setup_s", median(setups)*f, "s")
		m.set("ops_per_s", float64(answers)/(us*f/1e6), "1/s")
		m.set("p50_us", quantile(lat, 0.50)*f, "us")
		m.set("p99_us", quantile(lat, 0.99)*f, "us")
		m.set("max_rss_mb", maxRSSMB(), "MB")
		return e.result(m), nil
	}

	tr := newTracer()
	gc0 := gcCPU()
	plain, traced, err := alternate(w, e, rng, length, tr)
	if err != nil {
		return result{}, err
	}
	gc1 := gcCPU()
	e.chk.complete()
	m := zeroLayers()
	m.set("trace.overhead", median(traced)/median(plain)-1, "ratio")
	m.set("runtime.gc_frac", gc1.frac(gc0), "ratio")
	m.set("host.calib_us", e.calibUS, "us")
	if err := w.layers(e, m); err != nil {
		return result{}, err
	}
	if err := tr.write(filepath.Join(out, "trace-"+name+".json")); err != nil {
		return result{}, err
	}
	return e.result(m), nil
}

// phase repeats rounds until length has passed; a round that is
// running when the time is up finishes and counts.
func phase(w workload, e *env, rng *rand.Rand, length time.Duration) error {
	start := time.Now()
	for rounds := 0; rounds == 0 || time.Since(start) < length; rounds++ {
		e.calibrate()
		if _, err := timedRound(w, e, rng); err != nil {
			return err
		}
	}
	return nil
}

// alternate runs untraced and traced rounds in turn until length has
// passed, so that drift over the run hits both alike, and returns the
// host seconds of each kind. It leaves e.tr set to tr.
func alternate(w workload, e *env, rng *rand.Rand, length time.Duration, tr *tracer) (plain, traced []float64, err error) {
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < length {
		e.calibrate()
		e.tr = nil
		if len(plain) > len(traced) {
			e.tr = tr
		}
		d, err := timedRound(w, e, rng)
		if err != nil {
			return nil, nil, err
		}
		if e.tr == nil {
			plain = append(plain, d)
		} else {
			traced = append(traced, d)
		}
	}
	e.tr = tr
	return plain, traced, nil
}

// timedRound runs one round under a span and returns its host seconds,
// less the calibrations within it.
func timedRound(w workload, e *env, rng *rand.Rand) (float64, error) {
	t0, spent := time.Now(), e.calibSpent
	span := e.tr.begin(0, 0, "round", "")
	e.round = span.ID
	if err := w.round(e, rng); err != nil {
		return 0, err
	}
	e.tr.end(span)
	return (time.Since(t0) - (e.calibSpent - spent)).Seconds(), nil
}

// timed records one timing of a unit of work that gave n answers.
func (e *env) timed(key string, us float64, n int64) {
	if e.work == nil {
		e.work, e.answers = map[string]float64{}, map[string]int64{}
	}
	e.work[key] = least(e.work, key, us)
	e.answers[key] = n
}

// latency records one latency of a ranked operation.
func (e *env) latency(key string, us float64) {
	if e.lat == nil {
		e.lat = map[string]float64{}
	}
	e.lat[key] = least(e.lat, key, us)
}

// least is the smaller of us and m's value for key, if it has one.
func least(m map[string]float64, key string, us float64) float64 {
	if old, ok := m[key]; ok && old < us {
		return old
	}
	return us
}

// result assembles the result line. Any output mismatch marks every
// operation of the run failed.
func (e *env) result(m metrics) result {
	r := result{Correct: e.chk.ok() && e.errs == 0, Attempted: e.ops + e.errs, Failed: e.errs, Metrics: m}
	if !e.chk.ok() {
		r.Failed = r.Attempted
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", strings.Join(e.chk.report(), "; "))
	}
	if r.Attempted == 0 {
		r.Attempted, r.Failed, r.Correct = 1, 1, false
	}
	return r
}

// maxRSSMB is the process's peak resident set.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// zeroLayers returns every per-layer metric at zero: the value a layer
// reports on a workload that gives it no work. Workloads overwrite the
// ones they exercise.
func zeroLayers() metrics {
	m := metrics{}
	for _, l := range perLayer {
		m.set(l.name, 0, l.unit)
	}
	return m
}

// perLayer lists every per-layer metric with its unit, in
// BENCHMARK.json order.
var perLayer = []struct{ name, unit string }{
	{"sweep.point_ms.p50", "ms"}, {"sweep.point_ms.p99", "ms"},
	{"sweep.idle_frac", "ratio"}, {"sweep.allocs_per_point", "count"},
	{"bench.load_ms.8400", "ms"}, {"bench.load_ms.t3d", "ms"}, {"bench.load_ms.t3e", "ms"},
	{"bench.load_ms.l1", "ms"}, {"bench.load_ms.l2", "ms"}, {"bench.load_ms.l3", "ms"}, {"bench.load_ms.mem", "ms"},
	{"bench.transfer_ms.8400-fetch", "ms"}, {"bench.transfer_ms.t3d-fetch", "ms"},
	{"bench.transfer_ms.t3d-deposit", "ms"}, {"bench.transfer_ms.t3e-fetch", "ms"},
	{"bench.transfer_ms.t3e-deposit", "ms"}, {"bench.host_ns_per_word", "ns"},
	{"node.loads", "count"}, {"node.stores", "count"},
	{"cache.read_misses", "count"}, {"cache.writebacks", "count"}, {"cache.hit_ratio", "ratio"},
	{"coherence.pulls", "count"}, {"coherence.mem_fills", "count"}, {"bus.transactions", "count"},
	{"dram.accesses", "count"}, {"dram.row_hit_ratio", "ratio"}, {"stream.established", "count"},
	{"torus.messages", "count"}, {"torus.bytes", "bytes"},
	{"remote.ereg_ops", "count"}, {"remote.deposit_writes", "count"},
	{"node.loadrun_ns_per_word", "ns"}, {"cache.access_ns", "ns"},
	{"coherence.fill_ns.clean", "ns"}, {"coherence.fill_ns.dirty", "ns"},
	{"dram.access_ns", "ns"}, {"torus.send_ns", "ns"}, {"remote.ereg_ns_per_word", "ns"},
	{"analytic.load_ns", "ns"}, {"analytic.transfer_ns", "ns"}, {"analytic.simulated_frac", "ratio"},
	{"store.open_ms", "ms"}, {"store.get_us.p50", "us"}, {"store.get_us.p99", "us"},
	{"store.put_us.p50", "us"}, {"store.hit_rate", "ratio"},
	{"store.lookup_us.p50", "us"}, {"store.lookup_us.p99", "us"}, {"store.surfaces_per_lookup", "count"},
	{"surface.decode_us", "us"}, {"surface.encode_us", "us"},
	{"serve.handler_us.bandwidth.p50", "us"}, {"serve.handler_us.bandwidth.p99", "us"},
	{"serve.handler_us.batch.p50", "us"}, {"serve.handler_us.plan.p50", "us"},
	{"serve.transport_us.p50", "us"},
	{"serve.exact_frac", "ratio"}, {"serve.interpolated_frac", "ratio"}, {"serve.analytic_frac", "ratio"},
	{"core.plan_us", "us"}, {"core.measure_s", "s"},
	{"report.render_ms", "ms"},
	{"runtime.gc_frac", "ratio"}, {"trace.overhead", "ratio"}, {"host.calib_us", "us"},
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
