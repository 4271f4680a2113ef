package main

// --stages: one ungated pass over the builder calls of `figures -all`
// (store off), each timed once, to show where its host time goes.

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/units"
)

func runStages(out io.Writer, workers int) error {
	ps := report.Pools(workers)
	ms := report.Machines()
	cs := map[string]*core.Characterization{}
	maxWS := 8 * units.MB
	type stage struct {
		name string
		run  func() error
	}
	var stages []stage
	add := func(name string, run func() error) { stages = append(stages, stage{name, run}) }
	for _, k := range []string{"8400", "t3d", "t3e"} {
		k := k
		add("report.LoadFigure "+k, func() error { report.LoadFigure(ps[k], maxWS); return nil })
	}
	for _, t := range []struct {
		k    string
		mode machine.Mode
	}{{"8400", machine.Fetch}, {"t3d", machine.Fetch}, {"t3d", machine.Deposit}, {"t3e", machine.Fetch}, {"t3e", machine.Deposit}} {
		t := t
		add(fmt.Sprintf("report.TransferFigure %s %v", t.k, t.mode), func() error {
			_, err := report.TransferFigure(ps[t.k], t.mode, maxWS)
			return err
		})
	}
	for _, k := range []string{"8400", "t3d", "t3e"} {
		k := k
		add("report.CopyFigure "+k, func() error { report.CopyFigure(ps[k]); return nil })
	}
	for _, k := range []string{"8400", "t3d", "t3e"} {
		k := k
		add("report.RemoteCopyFigure "+k, func() error { _, err := report.RemoteCopyFigure(ps[k]); return err })
	}
	for _, k := range []string{"8400", "t3d", "t3e"} {
		k := k
		add("report.AttributionFigure "+k, func() error { _, err := report.AttributionFigure(ps[k], maxWS); return err })
	}
	for _, k := range []string{"8400", "t3d", "t3e"} {
		k := k
		add("core.Measure "+k, func() error { cs[k] = core.Measure(ps[k], core.DefaultMeasure()); return nil })
	}
	sizes := []int{32, 64, 128, 256, 512, 1024}
	add("report.Figures15to17", func() error { _, err := report.Figures15to17(ms, cs, sizes); return err })
	// `figures -all` ends by printing tables A-C, which run these again.
	add("report.HeadlineLocal (tables)", func() error { report.HeadlineLocal(ps); return nil })
	add("report.HeadlineCopy (tables)", func() error { report.HeadlineCopy(ps); return nil })
	add("report.HeadlineFFT (tables)", func() error { _, err := report.HeadlineFFT(ms, cs); return err })
	add("report.Figures15to17 (tables)", func() error { _, err := report.Figures15to17(ms, cs, sizes); return err })

	secs := make([]float64, len(stages))
	var total float64
	for i, s := range stages {
		t0 := time.Now()
		if err := s.run(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		secs[i] = time.Since(t0).Seconds()
		total += secs[i]
	}
	fmt.Fprintf(out, "| stage | s | share |\n|---|---:|---:|\n")
	for i, s := range stages {
		fmt.Fprintf(out, "| %s | %.2f | %.1f%% |\n", s.name, secs[i], 100*secs[i]/total)
	}
	fmt.Fprintf(out, "| total | %.2f | 100%% |\n", total)
	return nil
}
