package main

// sim-local and sim-remote: cold, full-fidelity sweeps with the store
// off, run the way `figures -all` runs the paper's surfaces. Each
// round calls sweep.Pool.Run once per surface, with the benchmark's own
// kernel around bench.LoadSum or bench.Transfer; points run in the
// production index order (working set outer, stride inner), so the
// tail of every Run waits for the largest working sets as it does in
// `figures`. The seed orders the surfaces within a round.

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/access"
	"repro/internal/analytic"
	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/surface"
	"repro/internal/sweep"
	"repro/internal/units"
)

// simWS is the working-set axis of the sim workloads: Figures 1-8's
// 0.5 KB start, cut at 512 KB as `figures -maxws 512K` cuts it. The 1 MB
// to 8 MB rows make points of up to 0.3 s each, whose best times do not
// settle within one run on a noisy two-CPU host; below 512 KB a point
// takes at most 25 ms and every round repeats many times.
var simWS = surface.WorkingSets(units.KB/2, 512*units.KB)

// remoteStrides samples the paper's stride axis for the transfer
// surfaces, whose points cost about three times a load point's:
// contiguous, small odd and even strides, the line-sized 16, and the
// large strides where banks and pages conflict.
var remoteStrides = []int{1, 2, 3, 4, 16, 31, 64, 128}

// simPoint is one grid point of a surface.
type simPoint struct {
	ws     units.Bytes
	stride int
	regime string // analytic regime of ws: l1, l2, l3 or mem
	key    string // reference key
}

// simJob is one surface of the round: a pool and its points.
type simJob struct {
	machine string // "8400", "t3d" or "t3e"
	mode    string // "load", "fetch" or "deposit"
	pool    *sweep.Pool
	partner int
	points  []simPoint
}

// measure runs one point with the bench layer's public entry point.
func (j *simJob) measure(m machine.Machine, p simPoint) (units.BytesPerSec, error) {
	if j.mode == "load" {
		return bench.LoadSum(m, 0, access.Pattern{Base: machine.LocalBase(0), WorkingSet: p.ws, Stride: p.stride}), nil
	}
	cp, opt := j.copyPattern(p)
	return bench.Transfer(m, 0, j.partner, cp, opt)
}

// copyPattern is the transfer of point p, strided on the remote side
// exactly as bench.TransferSurface strides it.
func (j *simJob) copyPattern(p simPoint) (access.CopyPattern, machine.Options) {
	cp := access.CopyPattern{SrcBase: machine.LocalBase(0), DstBase: machine.LocalBase(j.partner),
		WorkingSet: p.ws, LoadStride: 1, StoreStride: 1}
	opt := machine.Options{Mode: machine.Fetch}
	if j.mode == "deposit" {
		cp.StoreStride = p.stride
		opt.Mode = machine.Deposit
	} else {
		cp.LoadStride = p.stride
	}
	return cp, opt
}

func (j *simJob) name() string {
	if j.mode == "load" {
		return j.machine
	}
	return j.machine + "-" + j.mode
}

type simWorkload struct {
	remote bool
	jobs   []*simJob

	// Samples of the traced rounds.
	pointMS   []float64            // every point's host time
	groupMS   map[string][]float64 // point times by machine, regime or transfer job
	idle      float64              // worker-seconds idle at Run tails
	offered   float64              // worker-seconds of the Runs
	points    int64                // points completed
	allocs    uint64               // heap allocations during the Runs, captures included
	hostNS    float64              // host time of the points
	words     int64                // simulated words of the points
	counts    map[string]int64     // simulated work of the first traced round
	countsSet bool                 // counts is complete
}

func newSim(remote bool) *simWorkload { return &simWorkload{remote: remote} }

func (w *simWorkload) setup(e *env, _ string) error {
	type spec struct{ machine, mode string }
	specs := []spec{{"8400", "load"}, {"t3d", "load"}, {"t3e", "load"}}
	strides := surface.PaperStrides
	if w.remote {
		specs = []spec{{"8400", "fetch"}, {"t3d", "fetch"}, {"t3d", "deposit"}, {"t3e", "fetch"}, {"t3e", "deposit"}}
		strides = remoteStrides
	}
	w.jobs = nil
	for _, s := range specs {
		w.jobs = append(w.jobs, &simJob{machine: s.machine, mode: s.mode})
	}
	if err := w.fresh(e); err != nil {
		return err
	}
	for _, j := range w.jobs {
		j.partner = machine.PreferredPartner(j.pool.Machine())
		model := analytic.New(j.pool.Machine().Calibration())
		for _, ws := range simWS {
			regime := strings.ToLower(model.Regime(ws))
			if regime == "dram" {
				regime = "mem"
			}
			for _, st := range strides {
				j.points = append(j.points, simPoint{ws: ws, stride: st, regime: regime,
					key: fmt.Sprintf("%s/%d/%d", j.name(), int64(ws), st)})
			}
		}
	}
	return nil
}

// fresh gives every job a pool of newly built machines. Each round
// calls it too: where a machine instance's simulated caches land in
// host memory moves its points' host time by up to a quarter, so every
// round samples a new instance and the run's median averages them.
func (w *simWorkload) fresh(e *env) error {
	// Collect the last round's machines now, between rounds, rather
	// than in the middle of the next round's points.
	for _, j := range w.jobs {
		j.pool = nil
	}
	runtime.GC()
	pools := report.Pools(e.workers)
	for _, p := range pools {
		// Build every worker's machine now: Run builds them lazily.
		if err := p.Run(e.workers, func(machine.Machine, int) error { return nil }); err != nil {
			return err
		}
	}
	for _, j := range w.jobs {
		j.pool = pools[j.machine]
	}
	return nil
}

func (w *simWorkload) round(e *env, rng *rand.Rand) error {
	if err := w.fresh(e); err != nil {
		return err
	}
	for _, k := range rng.Perm(len(w.jobs)) {
		// A round takes about a second: calibrate between its
		// surfaces too, for more samples of the host's speed.
		e.calibrate()
		if err := w.runJob(e, w.jobs[k]); err != nil {
			return err
		}
	}
	if e.tr != nil {
		w.countsSet = true
	}
	return nil
}

// runJob sweeps one surface. The kernel wrapper times each point and
// counts it only once bench returns without error; RunCaptured gives
// each point's simulated-work counters, which every round checks.
//
// The Run is timed on the wall clock, and each worker's share of it
// is split into pieces for ops_per_s: every point's kernel time; the
// gap before it, since the worker's last point ended (or the Run
// began), which holds the point's ColdReset, the last point's capture
// and the scheduling; and the worker's idle tail, from its last point
// to the end of the Run, waiting for the slowest point. The pieces of
// all workers add up to workers × wall. Each point's kernel and gap,
// and each Run's tails, are kept at their best over the rounds and
// divided by the workers, so their sum is the Run's best wall time as
// its parts reach it. Best times of whole Runs, or of everything but
// the kernels, need a round in which no piece was slowed by another
// tenant of the host; on a shared two-CPU host they spread the figure
// by 13-25% from run to run.
func (w *simWorkload) runJob(e *env, j *simJob) error {
	n := len(j.points)
	bw := make([]float64, n)
	start := make([]time.Time, n)
	end := make([]time.Time, n)
	who := make([]machine.Machine, n)
	done := make([]bool, n)
	kernel := func(m machine.Machine, i int) error {
		start[i] = time.Now()
		v, err := j.measure(m, j.points[i])
		end[i] = time.Now()
		who[i] = m
		if err != nil {
			return err
		}
		bw[i], done[i] = float64(v), true
		return nil
	}

	var ms0 runtime.MemStats
	if e.tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	runID := e.tr.id()
	t0 := time.Now()
	// Run's error repeats the first failed point; every failed point
	// is counted from done below.
	caps, _ := j.pool.RunCaptured(n, kernel)
	t1 := time.Now()

	workers := min(j.pool.Workers(), n)
	// Points run in index order on each worker, so a worker's previous
	// point is the last one with a lower index.
	lastEnd := map[machine.Machine]time.Time{}
	completed := 0
	for i, p := range j.points {
		if who[i] == nil {
			continue // never ran: a one-worker Run stops at its first error
		}
		prev, ok := lastEnd[who[i]]
		if !ok {
			prev = t0
		}
		lastEnd[who[i]] = end[i]
		us := float64(end[i].Sub(start[i]).Nanoseconds()) / 1e3
		e.timed("gap/"+p.key, float64(start[i].Sub(prev).Nanoseconds())/1e3/float64(workers), 0)
		if !done[i] {
			e.timed(p.key, us/float64(workers), 0)
			continue
		}
		completed++
		e.timed(p.key, us/float64(workers), 1)
		e.latency(p.key, us)
		e.chk.float(p.key, bw[i])
		e.chk.value("counts/"+p.key, countsDigest(caps[i].Counters))
	}
	// A worker that ran no point idled through the whole Run.
	idle := float64(workers-len(lastEnd)) * float64(t1.Sub(t0).Nanoseconds())
	for _, last := range lastEnd {
		idle += float64(t1.Sub(last).Nanoseconds())
	}
	e.timed("tail/"+j.name(), idle/1e3/float64(workers), 0)
	e.ops += int64(completed)
	e.errs += int64(n - completed)
	if e.tr == nil {
		return nil
	}

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	w.allocs += ms1.Mallocs - ms0.Mallocs
	e.tr.add(runID, e.round, 0, "sweep.Pool.RunCaptured", j.name(), t0, t1)
	call := "bench.Transfer"
	if j.mode == "load" {
		call = "bench.LoadSum"
	}
	if w.groupMS == nil {
		w.groupMS = map[string][]float64{}
	}
	if w.counts == nil {
		w.counts = map[string]int64{}
	}
	for i, p := range j.points {
		if !done[i] {
			continue
		}
		e.tr.add(e.tr.id(), runID, e.tr.point(), call,
			fmt.Sprintf("%s %s ws=%v stride=%d", j.name(), p.regime, p.ws, p.stride), start[i], end[i])
		d := end[i].Sub(start[i])
		ms := float64(d.Nanoseconds()) / 1e6
		w.pointMS = append(w.pointMS, ms)
		if j.mode == "load" {
			w.groupMS["load."+j.machine] = append(w.groupMS["load."+j.machine], ms)
			w.groupMS["load."+p.regime] = append(w.groupMS["load."+p.regime], ms)
		} else {
			w.groupMS["transfer."+j.name()] = append(w.groupMS["transfer."+j.name()], ms)
		}
		c := layerCounts(caps[i].Counters)
		for k, v := range c {
			if !w.countsSet {
				w.counts[k] += v
			}
		}
		w.hostNS += float64(d.Nanoseconds())
		w.words += c["node.loads"] + c["node.stores"] + c["remote.ereg_ops"]
	}
	w.idle += idle / 1e9
	w.offered += float64(workers) * t1.Sub(t0).Seconds()
	w.points += int64(completed)
	return nil
}

func (w *simWorkload) layers(e *env, m metrics) error {
	m.set("sweep.point_ms.p50", quantile(w.pointMS, 0.5), "ms")
	m.set("sweep.point_ms.p99", quantile(w.pointMS, 0.99), "ms")
	m.set("sweep.idle_frac", ratio(w.idle, w.offered), "ratio")
	m.set("sweep.allocs_per_point", ratio(float64(w.allocs), float64(w.points)), "count")
	for g, xs := range w.groupMS {
		kind, name, _ := strings.Cut(g, ".")
		m.set("bench."+kind+"_ms."+name, median(xs), "ms")
	}
	m.set("bench.host_ns_per_word", ratio(w.hostNS, float64(w.words)), "ns")
	c := w.counts
	for _, k := range []string{"node.loads", "node.stores", "cache.read_misses", "cache.writebacks",
		"coherence.pulls", "coherence.mem_fills", "bus.transactions", "dram.accesses",
		"stream.established", "torus.messages", "remote.ereg_ops", "remote.deposit_writes"} {
		m.set(k, float64(c[k]), "count")
	}
	m.set("torus.bytes", float64(c["torus.bytes"]), "bytes")
	hits := float64(c["cache.read_hits"] + c["cache.write_hits"])
	m.set("cache.hit_ratio", ratio(hits, hits+float64(c["cache.read_misses"]+c["cache.write_misses"])), "ratio")
	rows := float64(c["dram.row_hits"])
	m.set("dram.row_hit_ratio", ratio(rows, rows+float64(c["dram.row_misses"])), "ratio")
	return replaySim(w, m)
}

func (w *simWorkload) close() error { w.jobs = nil; return nil }

// layerCounts folds one point's probe snapshot into per-layer totals:
// node loads and stores, cache hits, misses and write-backs over all
// levels, coherence, bus, DRAM, stream, torus and remote-engine work.
func layerCounts(s probe.Snapshot) map[string]int64 {
	out := map[string]int64{}
	for _, v := range s.NonZero() {
		parts := strings.Split(v.Name, ".")
		last := parts[len(parts)-1]
		switch {
		case len(parts) == 2 && strings.HasPrefix(parts[0], "node") && (last == "loads" || last == "stores"):
			out["node."+last] += v.Count
		case len(parts) == 3 && strings.HasPrefix(parts[0], "node") && isLevel(parts[1]):
			switch last {
			case "read_hits", "write_hits", "read_misses", "write_misses", "writebacks":
				out["cache."+last] += v.Count
			}
		case len(parts) >= 2 && parts[len(parts)-2] == "dram":
			switch last {
			case "accesses", "row_hits", "row_misses":
				out["dram."+last] += v.Count
			}
		case len(parts) >= 2 && parts[len(parts)-2] == "stream" && last == "established":
			out["stream.established"] += v.Count
		case v.Name == "coh.pulls" || v.Name == "coh.mem_fills":
			out["coherence."+last] += v.Count
		case v.Name == "bus.transactions" || v.Name == "torus.messages":
			out[v.Name] += v.Count
		case v.Name == "torus.bytes":
			out[v.Name] += int64(v.Bytes)
		case v.Name == "ereg.ops":
			out["remote.ereg_ops"] += v.Count
		case v.Name == "deposit.remote_writes":
			out["remote.deposit_writes"] += v.Count
		}
	}
	return out
}

// isLevel reports whether s names a cache level: l1, l2, l3.
func isLevel(s string) bool {
	if len(s) < 2 || s[0] != 'l' {
		return false
	}
	_, err := strconv.Atoi(s[1:])
	return err == nil
}

// countsDigest digests every nonzero counter of a point — counts,
// simulated times and bytes — so any change to simulated work shows.
func countsDigest(s probe.Snapshot) string {
	var b strings.Builder
	for _, v := range s.NonZero() {
		b.WriteString(v.Format())
		b.WriteByte('\n')
	}
	return digest([]byte(b.String()))
}
