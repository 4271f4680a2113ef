package bench

// The sweeps: every figure's grid — the stride x working-set surfaces
// of Figures 1-8 and the fixed-working-set curves of Figures 9-14,
// which are surfaces of one working-set row — resolves through one
// store-backed path. Each point runs one cell kernel per benchmark
// family under sweep.Pool's determinism contract, so a cell is
// byte-identical whichever path simulated it: a full sweep, a pruned
// sweep, or the completion of a stored partial artifact.
//
// Pruned sweeps are the model-guided fast path: the analytic model
// fills the cells its closed form predicts confidently, and only the
// cells the pruner flags as uncertain — regime transitions, marginal
// absorbers, bank-ripple and landing-alias bands — are simulated.
// Every cell carries a provenance tag and the surface records the
// calibration hash the analytic fill came from.

import (
	"repro/internal/access"
	"repro/internal/analytic"
	"repro/internal/machine"
	"repro/internal/store"
	"repro/internal/surface"
	"repro/internal/sweep"
	"repro/internal/units"
)

// cellKernel measures one grid point on a ColdReset worker machine.
type cellKernel func(m machine.Machine, ws units.Bytes, stride int) (units.BytesPerSec, error)

// analyticFill returns the model's value for a cell the pruner is
// confident about; ok is false for a cell the simulator must run.
type analyticFill func(ws units.Bytes, stride int) (bw units.BytesPerSec, ok bool)

// loadKernel runs Load Sum on node idx.
func loadKernel(idx int) cellKernel {
	base := machine.LocalBase(idx)
	return func(m machine.Machine, ws units.Bytes, stride int) (units.BytesPerSec, error) {
		return LoadSum(m, idx, access.Pattern{Base: base, WorkingSet: ws, Stride: stride}), nil
	}
}

// copyKernel runs the local copy on node idx, strided on the load
// side when stridedLoads, else on the store side.
func copyKernel(idx int, stridedLoads bool) cellKernel {
	base := machine.LocalBase(idx)
	return func(m machine.Machine, ws units.Bytes, stride int) (units.BytesPerSec, error) {
		cp := access.CopyPattern{
			SrcBase: base, DstBase: base + 1<<30,
			WorkingSet: ws, LoadStride: 1, StoreStride: 1,
		}
		if stridedLoads {
			cp.LoadStride = stride
		} else {
			cp.StoreStride = stride
		}
		return LocalCopy(m, idx, cp), nil
	}
}

// transferKernel runs a remote transfer from src to dst, strided on
// the source reads when stridedLoads, else on the destination writes.
func transferKernel(src, dst int, opt machine.Options, stridedLoads bool) cellKernel {
	return func(m machine.Machine, ws units.Bytes, stride int) (units.BytesPerSec, error) {
		cp := access.CopyPattern{
			SrcBase: machine.LocalBase(src), DstBase: machine.LocalBase(dst),
			WorkingSet: ws, LoadStride: 1, StoreStride: 1,
		}
		if stridedLoads {
			cp.LoadStride = stride
		} else {
			cp.StoreStride = stride
		}
		return Transfer(m, src, dst, cp, opt)
	}
}

// LoadSurface sweeps LoadSum over the grid — Figures 1, 3, and 6.
// Points fan out across the pool's workers; results land by index, so
// the surface is byte-identical whatever the pool width. With a store
// attached to the pool, a cached surface under the same calibration
// is served (partial artifacts cost only their cold cells) and fresh
// results are written back.
func LoadSurface(p *sweep.Pool, idx int, strides []int, wss []units.Bytes) *surface.Surface {
	key := LoadSurfaceKey(p.Machine().Calibration(), idx, strides, wss)
	// The load kernel cannot fail.
	s, _, _ := resolve(p, key, "local load bandwidth", strides, wss, loadKernel(idx), nil)
	return s
}

// LoadSurfacePruned is LoadSurface with the analytic fast path
// filling the confident cells. Returns the surface and how many cells
// were simulated. With a store attached, any artifact under the same
// key — the pruned shape itself, or a complete surface an earlier
// full run wrote — satisfies the request with zero simulation.
func LoadSurfacePruned(p *sweep.Pool, idx int, strides []int, wss []units.Bytes) (*surface.Surface, int) {
	cal := p.Machine().Calibration()
	pr := analytic.NewPruner(cal)
	fill := func(ws units.Bytes, stride int) (units.BytesPerSec, bool) {
		if pr.UncertainLoad(ws, stride) {
			return 0, false
		}
		return pr.Model().LoadBW(ws, stride), true
	}
	s, simulated, _ := resolve(p, LoadSurfaceKey(cal, idx, strides, wss), "local load bandwidth",
		strides, wss, loadKernel(idx), fill)
	return s, simulated
}

// TransferSurface sweeps remote transfers over the grid — Figures 2,
// 4, 5, 7, and 8. The stride applies to the remote side: the loads
// for Fetch, the stores for Deposit; the local side is contiguous.
func TransferSurface(p *sweep.Pool, src, dst int, mode machine.Mode, strides []int, wss []units.Bytes) (*surface.Surface, error) {
	key := TransferSurfaceKey(p.Machine().Calibration(), src, dst, mode, strides, wss)
	s, _, err := resolve(p, key, "remote transfer bandwidth, "+mode.String(), strides, wss,
		transferKernel(src, dst, machine.Options{Mode: mode}, mode != machine.Deposit), nil)
	return s, err
}

// TransferSurfacePruned is TransferSurface with the analytic fast
// path filling the confident cells. Returns the surface and how many
// cells were simulated.
func TransferSurfacePruned(p *sweep.Pool, src, dst int, mode machine.Mode, strides []int, wss []units.Bytes) (*surface.Surface, int, error) {
	cal := p.Machine().Calibration()
	pr := analytic.NewPruner(cal)
	fill := func(ws units.Bytes, stride int) (units.BytesPerSec, bool) {
		if pr.UncertainTransfer(mode, ws, stride) {
			return 0, false
		}
		// A mode the closed form cannot express falls back to the
		// simulator cell by cell.
		bw, err := pr.Model().TransferBW(mode, ws, stride)
		return bw, err == nil
	}
	return resolve(p, TransferSurfaceKey(cal, src, dst, mode, strides, wss),
		"remote transfer bandwidth, "+mode.String(), strides, wss,
		transferKernel(src, dst, machine.Options{Mode: mode}, mode != machine.Deposit), fill)
}

// CopyCurve sweeps LocalCopy over strides at a fixed large working
// set — Figures 9-11 — as a one-row surface. stridedLoads selects
// which side is strided.
func CopyCurve(p *sweep.Pool, idx int, ws units.Bytes, strides []int, stridedLoads bool) *surface.Surface {
	// Clamp before keying: the sweep only ever sees the clamped
	// working set, so two over-cap requests share one store entry.
	ws = min(ws, transferCap)
	title := "local copy, contiguous loads/strided stores"
	if stridedLoads {
		title = "local copy, strided loads/contiguous stores"
	}
	key := CopyCurveKey(p.Machine().Calibration(), idx, ws, strides, stridedLoads)
	// The copy kernel cannot fail.
	s, _, _ := resolve(p, key, title, strides, []units.Bytes{ws}, copyKernel(idx, stridedLoads), nil)
	return s
}

// TransferCurve sweeps remote transfers over strides at a fixed large
// working set — Figures 12-14 — as a one-row surface. stridedLoads
// selects whether the source reads or the destination writes are
// strided.
func TransferCurve(p *sweep.Pool, src, dst int, ws units.Bytes, strides []int, mode machine.Mode, stridedLoads bool, pipelined bool) (*surface.Surface, error) {
	// Transfer clamps every measured point to transferCap; the row
	// carries the working set actually measured, as the key does.
	ws = min(ws, transferCap)
	title := "remote copy, " + mode.String()
	if stridedLoads {
		title += ", strided loads/contiguous stores"
	} else {
		title += ", contiguous loads/strided stores"
	}
	key := TransferCurveKey(p.Machine().Calibration(), src, dst, ws, strides, mode, stridedLoads, pipelined)
	s, _, err := resolve(p, key, title, strides, []units.Bytes{ws},
		transferKernel(src, dst, machine.Options{Mode: mode, Pipelined: pipelined}, stridedLoads), nil)
	return s, err
}

// resolve is the one store-backed sweep path behind every entry point
// above. It returns the surface for key and how many cells it
// simulated:
//
//   - on a store hit, a pruned request (fill != nil) takes the stored
//     artifact as it is, and a full request simulates only its cold
//     cells — the ones an earlier pruned sweep filled analytically —
//     and writes the completed surface back;
//   - on a miss (or with no store attached) it simulates every cell,
//     or only the cells fill declines, and writes the result back.
//
// A write failure only costs future hits — the sweep's result stands
// — so it is not propagated.
func resolve(p *sweep.Pool, key store.Key, title string, strides []int, wss []units.Bytes, kernel cellKernel, fill analyticFill) (*surface.Surface, int, error) {
	st := p.Store()
	var s *surface.Surface
	hit := false
	if st != nil {
		s, hit = st.GetSurface(key)
	}
	var cells []int
	switch {
	case hit && fill != nil:
		return s, 0, nil
	case hit:
		cells = coldCells(s)
		if len(cells) == 0 {
			return s, 0, nil
		}
	default:
		s = surface.New(p.Machine().Name(), title, strides, wss)
		s.CalHash = key.CalHash
		for i := 0; i < len(wss)*len(strides); i++ {
			wi, si := i/len(strides), i%len(strides)
			if fill != nil {
				if bw, ok := fill(wss[wi], strides[si]); ok {
					s.Set(wi, si, bw)
					s.SetSource(wi, si, surface.Analytic)
					continue
				}
			}
			cells = append(cells, i)
		}
	}
	err := p.RunAt(cells, func(m machine.Machine, i int) error {
		wi, si := i/len(strides), i%len(strides)
		bw, err := kernel(m, wss[wi], strides[si])
		if err != nil {
			return err
		}
		s.Set(wi, si, bw)
		s.SetSource(wi, si, surface.Simulated)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if st != nil {
		_ = st.PutSurface(key, s)
	}
	return s, len(cells), nil
}

// coldCells returns the flat indices of the cells an earlier pruned
// sweep filled from the analytic model — the ones a full request
// still has to simulate.
func coldCells(s *surface.Surface) []int {
	var idx []int
	for wi := range s.BW {
		for si := range s.BW[wi] {
			if s.SourceAt(wi, si) != surface.Simulated {
				idx = append(idx, wi*len(s.Strides)+si)
			}
		}
	}
	return idx
}
