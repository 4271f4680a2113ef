package bench

// Store-key recipes for the sweep artifacts this package persists.
// They are exported so read-only consumers — memserve's planner
// shards, which rebuild a core.Characterization from the store
// without ever simulating — address exactly the artifacts the sweeps
// here wrote. The sweep functions below build their keys through the
// same helpers, so the recipe cannot drift.

import (
	"repro/internal/machine"
	"repro/internal/store"
	"repro/internal/units"
)

// LoadSurfaceKey is the store key of LoadSurface's artifact: the
// local load bandwidth grid swept on node idx.
func LoadSurfaceKey(cal machine.Calibration, idx int, strides []int, wss []units.Bytes) store.Key {
	return store.SurfaceKey(cal, store.PatternLoad, "", idx, 0, strides, wss)
}

// TransferSurfaceKey is the store key of TransferSurface's artifact:
// the remote transfer grid from src to dst under mode.
func TransferSurfaceKey(cal machine.Calibration, src, dst int, mode machine.Mode, strides []int, wss []units.Bytes) store.Key {
	return store.SurfaceKey(cal, store.PatternTransfer, mode.String(), src, dst, strides, wss)
}

// CopyCurveKey is the store key of CopyCurve's one-row artifact. The
// working set is clamped to the transfer cap exactly as the sweep
// clamps it, so two over-cap requests share one entry.
func CopyCurveKey(cal machine.Calibration, idx int, ws units.Bytes, strides []int, stridedLoads bool) store.Key {
	variant := "ss"
	if stridedLoads {
		variant = "sl"
	}
	return store.SurfaceKey(cal, store.PatternCopy, variant, idx, 0, strides, []units.Bytes{min(ws, transferCap)})
}

// TransferCurveKey is the store key of TransferCurve's one-row
// artifact. The working set is clamped to the per-point transfer cap
// the sweep actually measures.
func TransferCurveKey(cal machine.Calibration, src, dst int, ws units.Bytes, strides []int, mode machine.Mode, stridedLoads, pipelined bool) store.Key {
	variant := mode.String() + "-ss"
	if stridedLoads {
		variant = mode.String() + "-sl"
	}
	if pipelined {
		variant += "-p"
	}
	return store.SurfaceKey(cal, store.PatternRemoteCopy, variant, src, dst, strides, []units.Bytes{min(ws, transferCap)})
}
