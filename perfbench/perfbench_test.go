package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/units"
)

// smallSim returns a sim workload cut to a few cheap points per surface.
func smallSim(t *testing.T, remote bool, workers int, chk *checker) (*simWorkload, *env) {
	t.Helper()
	w := newSim(remote)
	e := &env{workers: workers, chk: chk}
	if err := w.setup(e, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for _, j := range w.jobs {
		j.points = j.points[:4]
	}
	return w, e
}

func TestReferenceMatchesAndPerturbedValueFails(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	w, e := smallSim(t, false, 2, newChecker(ref["sim-local"]))
	if err := w.round(e, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if !e.chk.ok() || e.errs != 0 || e.ops != 12 {
		t.Fatalf("seed outputs: ok=%v errs=%d ops=%d %v", e.chk.ok(), e.errs, e.ops, e.chk.report())
	}
	if r := e.result(metrics{}); !r.Correct || r.Failed != 0 || r.Attempted != 12 {
		t.Fatalf("result %+v, want correct with 12 attempted", r)
	}

	// Perturb one simulated value in the last bit of its mantissa.
	perturbed := map[string]string{}
	for k, v := range ref["sim-local"] {
		perturbed[k] = v
	}
	key := w.jobs[0].points[1].key
	f, err := strconv.ParseFloat(perturbed[key], 64)
	if err != nil {
		t.Fatal(err)
	}
	perturbed[key] = strconv.FormatFloat(f*(1+1e-15), 'g', -1, 64)
	w, e = smallSim(t, false, 2, newChecker(perturbed))
	if err := w.round(e, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if e.chk.ok() {
		t.Fatalf("perturbed reference for %s passed the check", key)
	}
	if r := e.result(metrics{}); r.Correct || r.Failed != r.Attempted || r.Attempted != 12 {
		t.Fatalf("result %+v, want every operation failed", r)
	}
}

// slowReset is a machine whose ColdReset takes at least resetDelay.
type slowReset struct{ machine.Machine }

const resetDelay = 2 * time.Millisecond

func (m slowReset) ColdReset() {
	time.Sleep(resetDelay)
	m.Machine.ColdReset()
}

// TestOpsPerSecondCountsRunOverhead shows that the time a Run spends
// outside the kernels, here in ColdReset, reaches ops_per_s through
// the gaps before the points.
func TestOpsPerSecondCountsRunOverhead(t *testing.T) {
	w, e := smallSim(t, false, 2, newRecorder())
	factories := report.Factories()
	for _, j := range w.jobs {
		f := factories[j.machine]
		j.pool = sweep.NewPool(func() machine.Machine { return slowReset{f()} }, 2)
	}
	for _, j := range w.jobs {
		if err := w.runJob(e, j); err != nil {
			t.Fatal(err)
		}
		// Four resets on two workers.
		var got float64
		for _, p := range j.points {
			got += e.work["gap/"+p.key]
		}
		if min := 2 * float64(resetDelay.Microseconds()); got < min {
			t.Errorf("%s: time before the kernels %.0f µs, want at least %.0f", j.name(), got, min)
		}
	}
}

// TestRunPiecesCoverWall shows that after one Run its pieces behind
// ops_per_s — kernels, gaps and tails over the workers — add up to the
// Run's wall time.
func TestRunPiecesCoverWall(t *testing.T) {
	w, e := smallSim(t, false, 2, newRecorder())
	e.tr = newTracer()
	j := w.jobs[0]
	if err := w.runJob(e, j); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, us := range e.work {
		sum += us
	}
	for _, s := range e.tr.spans {
		if s.Name == "sweep.Pool.RunCaptured" {
			if wall := float64(s.End-s.Start) / 1e3; math.Abs(sum-wall) > 0.01 {
				t.Fatalf("pieces add up to %.3f µs, Run took %.3f µs", sum, wall)
			}
			return
		}
	}
	t.Fatal("no Run span")
}

// tracedCounts runs one traced round and returns the per-layer totals
// and every point's counter digest.
func tracedCounts(t *testing.T, remote bool, workers int) (map[string]int64, map[string]string) {
	t.Helper()
	w, e := smallSim(t, remote, workers, newRecorder())
	e.tr = newTracer()
	if err := w.round(e, rand.New(rand.NewSource(7))); err != nil {
		t.Fatal(err)
	}
	if !e.chk.ok() || e.errs != 0 {
		t.Fatalf("round failed: %v", e.chk.report())
	}
	return w.counts, e.chk.got
}

func TestSimulatedWorkCountsRepeat(t *testing.T) {
	for _, remote := range []bool{false, true} {
		counts, digests := tracedCounts(t, remote, 1)
		if counts["node.loads"] == 0 {
			t.Fatalf("remote=%v: no loads counted: %v", remote, counts)
		}
		if remote && (counts["torus.messages"] == 0 || counts["remote.ereg_ops"] == 0) {
			t.Fatalf("remote round drove no torus or E-register work: %v", counts)
		}
		for _, workers := range []int{1, 2} {
			c, d := tracedCounts(t, remote, workers)
			if !reflect.DeepEqual(c, counts) {
				t.Errorf("remote=%v workers=%d: counts %v, first run %v", remote, workers, c, counts)
			}
			if !reflect.DeepEqual(d, digests) {
				t.Errorf("remote=%v workers=%d: per-point outputs differ from the first run", remote, workers)
			}
		}
	}
}

func TestServePoolIsFixedAndCovered(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	a, err := servePool()
	if err != nil {
		t.Fatal(err)
	}
	b, err := servePool()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("servePool is not deterministic")
	}
	if len(ref["serve-mixed"]) != len(a) {
		t.Fatalf("reference holds %d answers for a pool of %d queries", len(ref["serve-mixed"]), len(a))
	}

	// The answers' confidence mix is the measured one, 45/30/25.
	grid := core.DefaultMeasure()
	models := map[string]*analytic.Model{}
	for k, cal := range calibrations() {
		models[k] = analytic.New(cal)
	}
	tags := map[string]int{}
	for _, q := range a {
		switch q.kind {
		case "bandwidth":
			tags[confidence(q.single, grid, models[q.single.machine])]++
		case "batch":
			var req serve.BatchRequest
			if err := json.Unmarshal(q.body, &req); err != nil {
				t.Fatal(err)
			}
			for _, r := range req.Queries {
				b := bwQuery{machine: r.Machine, pattern: r.Pattern, mode: r.Mode, ws: units.Bytes(r.WS), stride: r.Stride}
				tags[confidence(b, grid, models[b.machine])]++
			}
		}
	}
	want := map[string]int{"exact": 282, "interpolated": 186, "analytic": 156}
	if !reflect.DeepEqual(tags, want) {
		t.Fatalf("confidence mix %v, want %v", tags, want)
	}
}

func TestMissingOutputFails(t *testing.T) {
	c := newChecker(map[string]string{"a": "1", "b": "2"})
	c.value("a", "1")
	if !c.ok() {
		t.Fatalf("matching output failed: %v", c.report())
	}
	c.complete()
	if c.ok() {
		t.Fatal("reference key never produced passed the check")
	}
}

func TestCovered(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 40}, {Start: 30, End: 60}, {Start: 80, End: 120}}
	if got := covered(parent, kids); got != 70 {
		t.Fatalf("covered = %d, want 70", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics a run
// prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, w := range spec.Workloads {
		names[w.Name] = true
	}
	if got, want := sortedKeys(names), sortedKeys(workloads); !reflect.DeepEqual(got, want) {
		t.Errorf("workloads %v, want %v", got, want)
	}
	var got []named
	for _, l := range perLayer {
		got = append(got, named{l.name, l.unit})
	}
	if !reflect.DeepEqual(got, spec.PerLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from perLayer")
	}
	want := []named{{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"p50_us", "us"}, {"p99_us", "us"}, {"max_rss_mb", "MB"}}
	if !reflect.DeepEqual(spec.EndToEnd, want) {
		t.Errorf("end_to_end %v, want %v", spec.EndToEnd, want)
	}
}
