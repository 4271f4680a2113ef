package serve

import (
	"fmt"
	"sort"

	"repro/internal/analytic"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/surface"
	"repro/internal/units"
)

// shard serves one machine: its own store instance (own lock, own
// LRU) over the shared directory, and a planner characterization
// rebuilt at startup from stored artifacts or the analytic model.
// Everything here is read-only after newShard; the store guards its
// own mutation internally.
type shard struct {
	key     string // short name: "8400", "t3d", "t3e"
	display string // calibration display name: "DEC 8400", ...
	cal     machine.Calibration
	partner int // canonical remote partner for planner transfers
	st      *store.Store
	char    *core.Characterization
	// prov grades each characterization component (keyed by the
	// core.Comp* names) by where its surface came from: Exact
	// (stored, fully simulated), Interpolated (stored but partially
	// analytic), Analytic (synthesized).
	prov map[string]store.Confidence
	grid core.MeasureOptions
}

// shardNames returns the served machine keys in sorted order.
func shardNames() []string {
	fs := report.Factories()
	names := make([]string, 0, len(fs))
	//simlint:ignore determinism keys are sorted immediately below
	for k := range fs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// newShard builds the shard for one machine key. The machine instance
// exists only long enough to read its calibration and pick the
// canonical transfer partner — nothing is simulated, here or ever.
func newShard(name string, cfg Config) (*shard, error) {
	f, ok := report.Factories()[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown machine %q", name)
	}
	m := f()
	st, err := store.Open(cfg.StoreDir, store.Options{
		CacheEntries: cfg.CacheEntries, Logf: cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	sh := &shard{
		key:     name,
		display: m.Name(),
		cal:     m.Calibration(),
		partner: machine.PreferredPartner(m),
		st:      st,
		grid:    core.DefaultMeasure(),
	}
	sh.buildChar()
	return sh, nil
}

// lookup answers one bandwidth query from the shard's store (exact or
// interpolated) or the analytic model.
func (sh *shard) lookup(p store.Pattern, mode machine.Mode, ws units.Bytes, stride int) (store.Result, error) {
	return sh.st.Lookup(sh.cal, p, mode, ws, stride)
}

// buildChar reconstructs the planner characterization from stored
// artifacts on the core.DefaultMeasure grids — the exact keys
// core.Measure writes through bench — and synthesizes any missing
// surface from the analytic model. The provenance of every component
// is recorded so planner responses can carry an honest confidence
// tag.
func (sh *shard) buildChar() {
	opt := sh.grid
	prov := make(map[string]store.Confidence)
	// get is the one get-or-synthesize step: the stored artifact under
	// key, else the analytic synthesis, else (the machine supports
	// neither, e.g. deposits on the 8400) nil and no provenance entry,
	// which leaves the planner strategy unavailable — matching what
	// core.Measure produces against the simulator.
	get := func(comp string, key store.Key, synth func() (*surface.Surface, error)) *surface.Surface {
		if s, ok := sh.st.GetSurface(key); ok {
			prov[comp] = surfaceConfidence(s)
			return s
		}
		s, err := synth()
		if err != nil {
			return nil
		}
		prov[comp] = store.Analytic
		return s
	}
	loads := func() (*surface.Surface, error) {
		return analytic.LoadSurface(sh.cal, opt.Strides, opt.WorkingSets), nil
	}
	copies := func(stridedLoads bool) func() (*surface.Surface, error) {
		return func() (*surface.Surface, error) {
			return analytic.CopySurface(sh.cal, opt.CopyWS, opt.Strides, stridedLoads), nil
		}
	}
	// The closed form does not model pipelined chunking; the plain
	// mode curve stands in for the blocked fetch, still honestly
	// tagged analytic.
	transfers := func(mode machine.Mode) func() (*surface.Surface, error) {
		return func() (*surface.Surface, error) {
			return analytic.TransferSurface(sh.cal, mode, opt.Strides, []units.Bytes{opt.CopyWS})
		}
	}
	transferKey := func(mode machine.Mode, stridedLoads, pipelined bool) store.Key {
		return bench.TransferCurveKey(sh.cal, 0, sh.partner, opt.CopyWS, opt.Strides, mode, stridedLoads, pipelined)
	}
	sh.char = &core.Characterization{
		MachineName:            sh.display,
		LocalLoad:              get(core.CompLoad, bench.LoadSurfaceKey(sh.cal, 0, opt.Strides, opt.WorkingSets), loads),
		LocalCopyStridedLoads:  get(core.CompCopySL, bench.CopyCurveKey(sh.cal, 0, opt.CopyWS, opt.Strides, true), copies(true)),
		LocalCopyStridedStores: get(core.CompCopySS, bench.CopyCurveKey(sh.cal, 0, opt.CopyWS, opt.Strides, false), copies(false)),
		RemoteFetch:            get(core.CompFetch, transferKey(machine.Fetch, true, false), transfers(machine.Fetch)),
		RemoteDeposit:          get(core.CompDeposit, transferKey(machine.Deposit, false, false), transfers(machine.Deposit)),
		BlockedFetch:           get(core.CompBlocked, transferKey(machine.Fetch, true, true), transfers(machine.Fetch)),
	}
	sh.prov = prov
}

// surfaceConfidence grades a stored surface: Exact when every cell is
// simulated, Interpolated when a pruned sweep's analytic fills remain.
func surfaceConfidence(s *surface.Surface) store.Confidence {
	for wi := range s.BW {
		for si := range s.BW[wi] {
			if s.SourceAt(wi, si) != surface.Simulated {
				return store.Interpolated
			}
		}
	}
	return store.Exact
}

// stepConfidence grades one planner step: the base provenance of the
// component core.Bandwidth consults, degraded to Interpolated when an
// exact curve is read off-grid (Surface.At interpolates between
// measured strides).
func (sh *shard) stepConfidence(sp core.Spec) store.Confidence {
	comp, _ := sh.char.Component(sp)
	base, ok := sh.prov[comp]
	if !ok {
		return store.Analytic
	}
	if base != store.Exact {
		return base
	}
	stride := sp.LoadStride
	if sp.StoreStride > stride {
		stride = sp.StoreStride
	}
	if stride < 1 {
		stride = 1
	}
	for _, s := range sh.grid.Strides {
		if s == stride {
			return store.Exact
		}
	}
	return store.Interpolated
}

// planConfidence grades a whole strategy: the worst confidence over
// its steps.
func (sh *shard) planConfidence(steps []core.Spec) store.Confidence {
	worst := store.Exact
	for _, sp := range steps {
		if c := sh.stepConfidence(sp); c > worst {
			worst = c
		}
	}
	return worst
}
