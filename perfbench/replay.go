package main

// store-replay: setup is a cold pruned (`figures -fast`) sweep of the
// Figure 1-8 surfaces into an empty store — the pruner, RunPruned,
// store.Put and surface encoding. A round is one replay pass: open the
// store anew, resolve the same pruned requests through the
// store-backed report path (manifest, disk get, checksum, decode) and
// render each surface as `figures` writes it. No pass simulates.

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/surface"
	"repro/internal/sweep"
	"repro/internal/units"
)

// replayMaxWS bounds the surfaces' working-set axis. The 4 MB and 8 MB
// rows make a cold pruned sweep take about 20 s on two workers, too
// long to repeat in setup; up to 2 MB it takes about 2 s.
const replayMaxWS = 2 * units.MB

// replayReq is one figure's surface request.
type replayReq struct {
	name    string // the file `figures -all` writes it to
	machine string
	load    bool
	mode    machine.Mode
}

var replayReqs = []replayReq{
	{"fig01_8400_local_load", "8400", true, 0},
	{"fig02_8400_remote_pull", "8400", false, machine.Fetch},
	{"fig03_t3d_local_load", "t3d", true, 0},
	{"fig04_t3d_fetch", "t3d", false, machine.Fetch},
	{"fig05_t3d_deposit", "t3d", false, machine.Deposit},
	{"fig06_t3e_local_load", "t3e", true, 0},
	{"fig07_t3e_fetch", "t3e", false, machine.Fetch},
	{"fig08_t3e_deposit", "t3e", false, machine.Deposit},
}

// key is the store key the request's surface is written under.
func (r replayReq) key(p *sweep.Pool) store.Key {
	cal := p.Machine().Calibration()
	wss := surface.WorkingSets(units.KB/2, replayMaxWS)
	if r.load {
		return bench.LoadSurfaceKey(cal, 0, surface.PaperStrides, wss)
	}
	return bench.TransferSurfaceKey(cal, 0, machine.PreferredPartner(p.Machine()), r.mode, surface.PaperStrides, wss)
}

// resolve answers one request with report's pruned builders and
// returns the surface and how many cells it simulated.
func (r replayReq) resolve(p *sweep.Pool) (*surface.Surface, int, error) {
	if r.load {
		s, sim, _ := report.LoadFigurePruned(p, replayMaxWS)
		return s, sim, nil
	}
	s, sim, _, err := report.TransferFigurePruned(p, r.mode, replayMaxWS)
	return s, sim, err
}

type replayWorkload struct {
	dir   string
	pools map[string]*sweep.Pool
	// simulated and total cells of the last setup's pruned sweep.
	simulated, total int

	// Samples of the traced rounds.
	openMS, renderMS []float64
	hits, lookups    int64
}

func (w *replayWorkload) setup(e *env, dir string) error {
	w.dir = dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	w.pools = report.Pools(e.workers)
	for _, p := range w.pools {
		p.SetStore(st)
	}
	w.simulated, w.total = 0, 0
	for _, r := range replayReqs {
		s, sim, err := r.resolve(w.pools[r.machine])
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		w.simulated += sim
		w.total += len(s.Strides) * len(s.WorkingSets)
	}
	return nil
}

func (w *replayWorkload) round(e *env, rng *rand.Rand) error {
	open := e.tr.begin(e.round, 0, "store.Open", "")
	t0 := time.Now()
	st, err := store.Open(w.dir, store.Options{})
	if err != nil {
		return err
	}
	openUS := float64(time.Since(t0).Nanoseconds()) / 1e3
	e.tr.end(open)
	// The open is part of every pass: it answers nothing itself but
	// its time counts toward ops_per_s.
	e.timed("store.Open", openUS, 0)
	for _, p := range w.pools {
		p.SetStore(st)
	}
	for _, k := range rng.Perm(len(replayReqs)) {
		r := replayReqs[k]
		point := e.tr.point()
		t0 := time.Now()
		call := "report.TransferFigurePruned"
		if r.load {
			call = "report.LoadFigurePruned"
		}
		sp := e.tr.begin(e.round, point, call, r.name)
		s, sim, err := r.resolve(w.pools[r.machine])
		e.tr.end(sp)
		if err != nil || sim != 0 {
			// A replay that has to simulate has missed the store.
			e.errs += replayCells()
			continue
		}
		rs := e.tr.begin(e.round, point, "surface.Surface.CSV+ASCII", r.name)
		r0 := time.Now()
		text := s.CSV() + s.ASCII()
		renderMS := float64(time.Since(r0).Nanoseconds()) / 1e6
		e.tr.end(rs)
		us := float64(time.Since(t0).Nanoseconds()) / 1e3
		e.timed(r.name, us, replayCells())
		e.latency(r.name, us)
		e.chk.bytes(r.name, []byte(text))
		e.ops += replayCells()
		if e.tr != nil {
			w.renderMS = append(w.renderMS, renderMS)
		}
	}
	if e.tr != nil {
		w.openMS = append(w.openMS, openUS/1e3)
		s := st.Stats()
		w.hits += s.Hits()
		w.lookups += s.Hits() + s.Misses
	}
	return nil
}

// replayCells is the number of grid cells one request resolves.
func replayCells() int64 {
	return int64(len(surface.PaperStrides) * len(surface.WorkingSets(units.KB/2, replayMaxWS)))
}

func (w *replayWorkload) layers(e *env, m metrics) error {
	m.set("analytic.simulated_frac", ratio(float64(w.simulated), float64(w.total)), "ratio")
	m.set("store.open_ms", median(w.openMS), "ms")
	m.set("store.hit_rate", ratio(float64(w.hits), float64(w.lookups)), "ratio")
	m.set("report.render_ms", median(w.renderMS), "ms")
	return w.replayStore(m)
}

// replayStore times the store and surface entry points on the
// setup's artifacts: GetSurface from disk on a freshly opened store,
// PutSurface into a scratch store, and the surface codec.
func (w *replayWorkload) replayStore(m metrics) error {
	var getUS, putUS, encUS, decUS []float64
	scratch := w.dir + "-put"
	for rep := 0; rep < 20; rep++ {
		st, err := store.Open(w.dir, store.Options{})
		if err != nil {
			return err
		}
		put, err := store.Open(scratch, store.Options{})
		if err != nil {
			return err
		}
		for _, r := range replayReqs {
			p := w.pools[r.machine]
			key := r.key(p)
			t0 := time.Now()
			s, ok := st.GetSurface(key)
			getUS = append(getUS, float64(time.Since(t0).Nanoseconds())/1e3)
			if !ok {
				return fmt.Errorf("%s: not in the store", r.name)
			}
			t0 = time.Now()
			if err := put.PutSurface(key, s); err != nil {
				return err
			}
			putUS = append(putUS, float64(time.Since(t0).Nanoseconds())/1e3)
			t0 = time.Now()
			b, err := s.MarshalBinary()
			encUS = append(encUS, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				return err
			}
			var back surface.Surface
			t0 = time.Now()
			err = back.UnmarshalBinary(b)
			decUS = append(decUS, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				return err
			}
		}
	}
	m.set("store.get_us.p50", quantile(getUS, 0.5), "us")
	m.set("store.get_us.p99", quantile(getUS, 0.99), "us")
	m.set("store.put_us.p50", median(putUS), "us")
	m.set("surface.encode_us", median(encUS), "us")
	m.set("surface.decode_us", median(decUS), "us")
	return os.RemoveAll(scratch)
}

func (w *replayWorkload) close() error {
	w.pools = nil
	return os.RemoveAll(w.dir)
}
