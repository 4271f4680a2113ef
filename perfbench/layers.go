package main

// Entry-point replays for the traced sim runs: each public entry point
// below the bench layer is called directly, from outside, on address
// streams drawn from the round's own patterns, so its host cost per
// call shows without any change to the simulator.

import (
	"time"

	"repro/internal/access"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/machine"
	"repro/internal/node"
	"repro/internal/probe"
	"repro/internal/remote"
	"repro/internal/units"
)

// replayWords caps the accesses replayed per pattern.
const replayWords = 1 << 14

// walk visits the first replayWords addresses of p, run by run.
func walk(p access.Pattern, visit func(start access.Addr, step, count int64)) {
	c := access.NewCursor(p)
	for left := int64(replayWords); left > 0; {
		start, step, count, _, ok := c.Run(left)
		if !ok {
			return
		}
		visit(start, step, count)
		left -= count
	}
}

// lines returns the distinct line addresses of the first replayWords
// accesses of p, in access order.
func lines(p access.Pattern, lineBytes units.Bytes) []access.Addr {
	var out []access.Addr
	seen := map[access.Addr]bool{}
	mask := ^access.Addr(lineBytes - 1)
	walk(p, func(start access.Addr, step, count int64) {
		for k := int64(0); k < count; k++ {
			l := (start + access.Addr(k*step)) & mask
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	})
	return out
}

// perCall accumulates host time over calls.
type perCall struct {
	d     time.Duration
	calls int64
}

func (p *perCall) ns() float64 { return ratio(float64(p.d.Nanoseconds()), float64(p.calls)) }

func loadPattern(p simPoint) access.Pattern {
	return access.Pattern{Base: machine.LocalBase(0), WorkingSet: p.ws, Stride: p.stride}
}

// replaySim sets the entry-point metrics of the layers the workload
// drives: node, cache, clean coherence fills and DRAM on sim-local;
// dirty coherence fills, the torus and the E-registers on sim-remote.
func replaySim(w *simWorkload, m metrics) error {
	var loadRun, cacheAccess, fillClean, fillDirty, dramAccess, send, ereg perCall
	for _, j := range w.jobs {
		mach := j.pool.Machine()
		switch {
		case j.mode == "load":
			replayLocal(mach, j.points, &loadRun, &cacheAccess, &dramAccess)
			if smp, ok := mach.(*machine.SMP); ok {
				replayFill(smp, j.points, -1, 0, &fillClean)
			}
		case j.machine == "8400":
			replayFill(mach.(*machine.SMP), j.points, 0, j.partner, &fillDirty)
		default:
			mpp := mach.(*machine.MPP)
			replaySend(mpp, j, &send)
			if j.machine == "t3e" {
				replayEReg(mpp, j, &ereg)
			}
		}
	}
	for name, p := range map[string]*perCall{
		"node.loadrun_ns_per_word": &loadRun, "cache.access_ns": &cacheAccess,
		"coherence.fill_ns.clean": &fillClean, "coherence.fill_ns.dirty": &fillDirty,
		"dram.access_ns": &dramAccess, "torus.send_ns": &send, "remote.ereg_ns_per_word": &ereg,
	} {
		if p.calls > 0 {
			m.set(name, p.ns(), "ns")
		}
	}
	return nil
}

// replayLocal times node.LoadRun per word, cache.Access on a fresh
// copy of the node's L1, and dram.Access on a fresh copy of the DRAM
// that serves the node's misses.
func replayLocal(mach machine.Machine, points []simPoint, loadRun, acc, dramAcc *perCall) {
	n := mach.Node(0)
	l1 := n.Config().Levels[0].Cache
	l1.Probe = probe.Scope{} // count privately, not into the machine's registry
	dcfg := n.Config().DRAM
	if smp, ok := mach.(*machine.SMP); ok {
		dcfg = smp.Coherence().Mem().Config().DRAM
	}
	for _, p := range points {
		pat := loadPattern(p)
		mach.ColdReset()
		t0 := time.Now()
		walk(pat, func(start access.Addr, step, count int64) {
			n.LoadRun(start, step, count)
			loadRun.calls += count
		})
		loadRun.d += time.Since(t0)

		c := cache.New(l1)
		t0 = time.Now()
		walk(pat, func(start access.Addr, step, count int64) {
			for k := int64(0); k < count; k++ {
				c.Access(start+access.Addr(k*step), false)
			}
			acc.calls += count
		})
		acc.d += time.Since(t0)

		d := newDRAM(dcfg)
		ls := lines(pat, dcfg.LineBytes)
		var now units.Time
		t0 = time.Now()
		for _, l := range ls {
			now = d.Access(l, dcfg.LineBytes, now)
		}
		dramAcc.d += time.Since(t0)
		dramAcc.calls += int64(len(ls))
	}
}

// newDRAM builds a standalone bank model with a node's DRAM geometry
// and timing, as node.New configures it.
func newDRAM(s node.DRAMSpec) *dram.DRAM {
	return dram.New(dram.Config{Name: "replay", Banks: s.Banks, InterleaveBytes: s.InterleaveBytes,
		RowBytes: s.RowBytes, RowHit: s.BankOcc, RowMiss: s.BankOcc + s.RowPenalty})
}

// replayFill times coherence.Controller.Fill for node reader over the
// lines of each pattern. With producer >= 0 that node first stores the
// pattern, so every fill finds a dirty line in a peer cache; otherwise
// the peers are clean, as in a local load sweep.
func replayFill(smp *machine.SMP, points []simPoint, producer, reader int, fill *perCall) {
	c := smp.Coherence()
	lineBytes := c.Mem().Config().DRAM.LineBytes
	for _, p := range points {
		pat := loadPattern(p)
		smp.ColdReset()
		if producer >= 0 {
			src := smp.Node(producer)
			walk(pat, func(start access.Addr, step, count int64) { src.StoreRun(start, step, count) })
			src.FlushWrites()
		}
		ls := lines(pat, lineBytes)
		var now units.Time
		t0 := time.Now()
		for _, l := range ls {
			now = c.Fill(reader, l, lineBytes, now)
		}
		fill.d += time.Since(t0)
		fill.calls += int64(len(ls))
	}
}

// replaySend times torus.Network.Send of one word per access of each
// transfer, from the source node to its partner.
func replaySend(mpp *machine.MPP, j *simJob, send *perCall) {
	net := mpp.Network()
	for _, p := range j.points {
		net.Reset()
		words := min(int64(p.ws/units.Word), replayWords)
		var now units.Time
		t0 := time.Now()
		for k := int64(0); k < words; k++ {
			now = net.Send(0, j.partner, units.Word, now)
		}
		send.d += time.Since(t0)
		send.calls += words
	}
}

// replayEReg times remote.EReg per word on each transfer pattern,
// capped at replayWords words: gets for fetches, puts for deposits.
func replayEReg(mpp *machine.MPP, j *simJob, ereg *perCall) {
	cal := mpp.Calibration().EReg
	cfg := remote.ERegConfig{Registers: cal.Registers, BlockBytes: cal.BlockBytes, IssueSlot: cal.IssueSlot}
	for _, p := range j.points {
		cp, opt := j.copyPattern(p)
		cp.WorkingSet = min(cp.WorkingSet, replayWords*units.Word)
		mpp.ColdReset()
		local, rem, dir := mpp.Node(j.partner), mpp.Node(0), remote.Get
		if opt.Mode == machine.Deposit {
			local, rem, dir = mpp.Node(0), mpp.Node(j.partner), remote.Put
		}
		t0 := time.Now()
		remote.EReg(mpp.Network(), local, rem, cp, dir, cfg)
		ereg.d += time.Since(t0)
		ereg.calls += cp.Words()
	}
}
