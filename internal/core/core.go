// Package core implements the paper's primary contribution: the
// extended copy-transfer model (§4.1). A machine's memory system is
// characterized by measured bandwidth as a function of access pattern
// (stride), working set (temporal locality), and locality
// (local/remote, fetch/deposit). A compiler — the paper's Fx — then
// uses the characterization as a cost model to pick the cheapest
// implementation of a data transfer: "if a given platform allows more
// than one way to implement a communication step, the modeled
// bandwidth metric is used to determine the best way to implement
// this communication step."
package core

import (
	"fmt"
	"sort"

	"repro/internal/access"
	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/surface"
	"repro/internal/sweep"
	"repro/internal/units"
)

// Locality distinguishes local memory traffic from inter-processor
// communication (§4.1: "if the reading processor and writing
// processor are different for a copy transfer, the memory accesses of
// that transfer ... are therefore considered to be remote").
type Locality int

const (
	// Local copy transfers stay within one processing node.
	Local Locality = iota
	// Remote copy transfers move data between nodes.
	Remote
)

func (l Locality) String() string {
	if l == Local {
		return "local"
	}
	return "remote"
}

// Spec describes one copy transfer in the extended model: the basic
// copy-transfer model of [15] plus the working-set parameter the
// paper adds to capture temporal locality (§4.1).
type Spec struct {
	Locality    Locality
	Mode        machine.Mode // for Remote: Fetch or Deposit
	LoadStride  int
	StoreStride int
	WorkingSet  units.Bytes
	// Blocked marks transfers restructured to stay within caches
	// (the 8400's pipelined cache-to-cache pulls, §6.2).
	Blocked bool
}

func (s Spec) String() string {
	if s.Locality == Local {
		return fmt.Sprintf("local copy ls=%d ss=%d ws=%v", s.LoadStride, s.StoreStride, s.WorkingSet)
	}
	b := ""
	if s.Blocked {
		b = " blocked"
	}
	return fmt.Sprintf("remote %v%s ls=%d ss=%d ws=%v", s.Mode, b, s.LoadStride, s.StoreStride, s.WorkingSet)
}

// Characterization is the measured model of one machine: the load
// surfaces of Figures 1/3/6, the transfer curves of Figures 12-14,
// and the local copy curves of Figures 9-11. Each curve is a
// one-row surface at the copy working set.
type Characterization struct {
	MachineName string

	// LocalLoad is the stride x working-set load bandwidth surface.
	LocalLoad *surface.Surface

	// LocalCopyStridedLoads / LocalCopyStridedStores are the
	// large-transfer copy curves (Figures 9-11).
	LocalCopyStridedLoads  *surface.Surface
	LocalCopyStridedStores *surface.Surface

	// RemoteFetch / RemoteDeposit are the remote transfer curves at
	// a large working set, strided on the remote side (Figures
	// 12-14). RemoteDeposit is nil on machines without deposits.
	RemoteFetch   *surface.Surface
	RemoteDeposit *surface.Surface

	// BlockedFetch is the remote fetch curve under pipelined
	// (cache-resident) blocking, where the machine distinguishes it.
	BlockedFetch *surface.Surface
}

// Component names: one per characterization surface, as Component
// reports them. memserve keys its planner provenance by these names.
const (
	CompLoad    = "load"
	CompCopySL  = "copy-sl"
	CompCopySS  = "copy-ss"
	CompFetch   = "fetch"
	CompDeposit = "deposit"
	CompBlocked = "blocked"
)

// Component names the curve Bandwidth consults for s and returns it.
// The name is "" when s has an unknown locality or mode; the curve is
// nil when the machine lacks it (e.g. deposits on the 8400). A
// blocked fetch falls back to the plain fetch curve on machines that
// do not distinguish it.
func (c *Characterization) Component(s Spec) (string, *surface.Surface) {
	switch {
	case s.Locality == Local && s.LoadStride >= s.StoreStride:
		return CompCopySL, c.LocalCopyStridedLoads
	case s.Locality == Local:
		return CompCopySS, c.LocalCopyStridedStores
	case s.Locality != Remote:
		return "", nil
	case s.Mode == machine.Fetch && s.Blocked && c.BlockedFetch != nil:
		return CompBlocked, c.BlockedFetch
	case s.Mode == machine.Fetch:
		return CompFetch, c.RemoteFetch
	case s.Mode == machine.Deposit:
		return CompDeposit, c.RemoteDeposit
	}
	return "", nil
}

// MeasureOptions tunes the sweep grids.
type MeasureOptions struct {
	Strides     []int
	WorkingSets []units.Bytes
	CopyWS      units.Bytes
}

// DefaultMeasure returns grids dense enough for planning while
// keeping the sweep fast.
func DefaultMeasure() MeasureOptions {
	return MeasureOptions{
		Strides:     []int{1, 2, 4, 8, 16, 32, 64, 128},
		WorkingSets: []units.Bytes{4 * units.KB, 32 * units.KB, 256 * units.KB, 2 * units.MB, 8 * units.MB},
		CopyWS:      8 * units.MB,
	}
}

// Measure runs the micro-benchmark suite against a machine and
// returns its characterization, fanning every sweep's grid points
// across the pool's workers. This is the empirical step the paper
// argues for: "these models can no longer be derived from the data
// sheets ... but require measurements of micro benchmarks" (§9).
func Measure(p *sweep.Pool, opt MeasureOptions) *Characterization {
	if len(opt.Strides) == 0 {
		opt = DefaultMeasure()
	}
	c := &Characterization{MachineName: p.Machine().Name()}
	c.LocalLoad = bench.LoadSurface(p, 0, opt.Strides, opt.WorkingSets)
	c.LocalCopyStridedLoads = bench.CopyCurve(p, 0, opt.CopyWS, opt.Strides, true)
	c.LocalCopyStridedStores = bench.CopyCurve(p, 0, opt.CopyWS, opt.Strides, false)

	partner := machine.PreferredPartner(p.Machine())
	if cur, err := bench.TransferCurve(p, 0, partner, opt.CopyWS, opt.Strides, machine.Fetch, true, false); err == nil {
		c.RemoteFetch = cur
	}
	if cur, err := bench.TransferCurve(p, 0, partner, opt.CopyWS, opt.Strides, machine.Deposit, false, false); err == nil {
		c.RemoteDeposit = cur
	}
	if cur, err := bench.TransferCurve(p, 0, partner, opt.CopyWS, opt.Strides, machine.Fetch, true, true); err == nil {
		c.BlockedFetch = cur
	}
	return c
}

// Bandwidth estimates the bandwidth of a transfer described by s,
// interpolating the measured curve Component names.
func (c *Characterization) Bandwidth(s Spec) (units.BytesPerSec, error) {
	stride := s.LoadStride
	if s.StoreStride > stride {
		stride = s.StoreStride
	}
	if stride < 1 {
		stride = 1
	}
	if _, cur := c.Component(s); cur != nil {
		return cur.At(s.WorkingSet, stride), nil
	}
	if s.Locality == Remote {
		return 0, fmt.Errorf("%s: no %v transfers on this machine", c.MachineName, s.Mode)
	}
	return 0, fmt.Errorf("%s: no curve for locality %v", c.MachineName, s.Locality)
}

// LoadBandwidth estimates pure load bandwidth at a working set and
// stride (used by computation-phase models, e.g. the FFT study).
func (c *Characterization) LoadBandwidth(ws units.Bytes, stride int) units.BytesPerSec {
	return c.LocalLoad.At(ws, stride)
}

// Time estimates the time to move n bytes under spec s.
func (c *Characterization) Time(s Spec, n units.Bytes) (units.Time, error) {
	bw, err := c.Bandwidth(s)
	if err != nil {
		return 0, err
	}
	if bw <= 0 {
		return 0, fmt.Errorf("%s: zero bandwidth for %v", c.MachineName, s)
	}
	return units.TimeFor(n, bw), nil
}

// Redistribution describes an array-assignment communication step:
// each processor must move Bytes of data to other processors, with
// the given stride on the scattered side (a transpose of an N x N
// complex matrix has stride 2N words on the scattered side).
type Redistribution struct {
	Bytes        units.Bytes // per processor
	RemoteStride int         // stride of the scattered side, in words
}

// Strategy is one way to implement a redistribution, with its
// estimated cost.
type Strategy struct {
	Name string
	// Steps are the copy transfers composing the strategy (§4.1:
	// "each communication step is seen as a composition of basic
	// copy transfers with known performance characteristics").
	Steps []Spec
	Time  units.Time
	BW    units.BytesPerSec
}

// Plan enumerates the implementations of a redistribution and returns
// them sorted by estimated time (fastest first). The enumeration is
// exactly the option space the paper discusses (§6.2, §9): strided
// deposit, strided fetch, pack-then-send (local copies to rearrange
// access patterns, then a contiguous transfer), and cache-blocked
// pulls.
func (c *Characterization) Plan(r Redistribution) []Strategy {
	var out []Strategy
	add := func(name string, steps ...Spec) {
		var total units.Time
		for _, s := range steps {
			t, err := c.Time(s, r.Bytes)
			if err != nil {
				return // strategy unavailable on this machine
			}
			total += t
		}
		out = append(out, Strategy{Name: name, Steps: steps, Time: total, BW: units.BW(r.Bytes, total)})
	}

	add("strided deposit",
		Spec{Locality: Remote, Mode: machine.Deposit, LoadStride: 1, StoreStride: r.RemoteStride})
	add("strided fetch",
		Spec{Locality: Remote, Mode: machine.Fetch, LoadStride: r.RemoteStride, StoreStride: 1})
	add("blocked fetch",
		Spec{Locality: Remote, Mode: machine.Fetch, LoadStride: r.RemoteStride, StoreStride: 1, Blocked: true})
	// Pack at the source (local strided gather), then contiguous
	// deposit.
	add("pack + contiguous deposit",
		Spec{Locality: Local, LoadStride: r.RemoteStride, StoreStride: 1},
		Spec{Locality: Remote, Mode: machine.Deposit, LoadStride: 1, StoreStride: 1})
	// Contiguous fetch, then unpack at the destination (local
	// strided scatter).
	add("contiguous fetch + unpack",
		Spec{Locality: Remote, Mode: machine.Fetch, LoadStride: 1, StoreStride: 1},
		Spec{Locality: Local, LoadStride: 1, StoreStride: r.RemoteStride})

	sort.Slice(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// Best returns the fastest strategy for a redistribution.
func (c *Characterization) Best(r Redistribution) (Strategy, error) {
	plans := c.Plan(r)
	if len(plans) == 0 {
		return Strategy{}, fmt.Errorf("%s: no feasible strategy", c.MachineName)
	}
	return plans[0], nil
}

// Validate compares a planned strategy's estimate against an actual
// simulated transfer, returning (estimated, simulated) times — the
// micro-benchmark-to-application validation loop of §7.
func Validate(m machine.Machine, c *Characterization, r Redistribution) (est, sim units.Time, err error) {
	best, err := c.Best(r)
	if err != nil {
		return 0, 0, err
	}
	est = best.Time

	partner := machine.PreferredPartner(m)
	mode := machine.Fetch
	cp := access.CopyPattern{
		SrcBase: machine.LocalBase(0), DstBase: machine.LocalBase(partner),
		WorkingSet: r.Bytes, LoadStride: 1, StoreStride: 1,
	}
	for _, s := range best.Steps {
		if s.Locality == Remote {
			mode = s.Mode
			if s.Mode == machine.Deposit {
				cp.StoreStride = s.StoreStride
			} else {
				cp.LoadStride = s.LoadStride
			}
			break
		}
	}
	m.ColdReset()
	sim, err = m.Transfer(0, partner, cp, machine.Options{Mode: mode})
	return est, sim, err
}
