package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// parallelIDs are the CLI artefacts computed by fanning pair campaigns
// or fleet shards out over workers; each must match a serial run byte
// for byte.
const parallelIDs = "table2,fig3a,fig3b,fig3c,fig3d,fig4,fig7,fig8,fig9"

// cliArgs is the paper reproducer's command at the given parallelism.
func cliArgs(seed uint64, parallel int, out string) []string {
	p := strconv.Itoa(parallel)
	return []string{"-scale", "quick", "-seed", strconv.FormatUint(seed, 10),
		"-parallel", p, "-fleet", p, "-out", out}
}

// reproCold runs the experiments CLI cold, one process per unit, after
// making the serial reference of its parallelism-dependent artefacts.
func reproCold(ctx context.Context, cfg config, logw io.Writer) (*result, error) {
	if cfg.expBin == "" {
		return nil, errors.New("repro-cold needs -experiments")
	}
	cli := func(args ...string) (proc, error) {
		cmd := exec.CommandContext(ctx, cfg.expBin, args...)
		cmd.Stdout, cmd.Stderr = logw, logw
		return runProc(cmd)
	}
	refDir := filepath.Join(cfg.work, "ref")
	ref, err := cli(append(cliArgs(cfg.seed, 1, refDir), "-only", parallelIDs)...)
	if err != nil {
		return nil, fmt.Errorf("serial reference run: %w", err)
	}

	res := &result{}
	var walls, cpus, rss []float64
	first := ""
	n := runtime.NumCPU()
	start := time.Now()
	for u := 0; u == 0 || time.Since(start).Seconds() < cfg.seconds; u++ {
		out := filepath.Join(cfg.work, fmt.Sprintf("unit-%d", u))
		p, err := cli(cliArgs(cfg.seed, n, out)...)
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		rss = append(rss, p.maxRSSMB)
		if err != nil {
			res.op(fmt.Errorf("unit %d: experiments: %w", u, err))
		} else {
			res.op(errors.Join(sameArtefacts(refDir, out, false), sameArtefacts(first, out, true)))
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if first == "" {
			first = out
		} else if err := os.RemoveAll(out); err != nil {
			return nil, err
		}
	}
	if !cfg.trace {
		res.set("wall_s", median(walls), "s", len(walls))
		res.set("cpu_s", median(cpus), "s", len(cpus))
		res.set("peak_rss_mb", median(rss), "MB", len(rss))
		res.set("setup_s", ref.wall.Seconds(), "s", 1)
		return res, nil
	}

	inProc, err := probeExperiments(cfg, first, res, true)
	if err != nil {
		return nil, err
	}
	res.set("bench.trace_overhead", inProc.Seconds()/median(walls), "ratio", len(walls))
	if err := probeSim(res); err != nil {
		return nil, err
	}
	if err := probeCore(cfg, res); err != nil {
		return nil, err
	}
	return res, storeLayers(ctx, cfg, res, logw)
}

// storeLayers measures the store layers for a workload that does not
// use them: it builds the fleet reference and runs both fleet
// workloads traced.
func storeLayers(ctx context.Context, cfg config, res *result, logw io.Writer) error {
	refDir := filepath.Join(cfg.work, "fleet-ref")
	if err := buildFleetRef(cfg.seed, cfg.shards, refDir); err != nil {
		return err
	}
	for _, kind := range []string{"fleet-join", "fleet-resume"} {
		rep, _, err := fleetChild(ctx, cfg, kind, refDir, true, logw)
		if err != nil {
			return err
		}
		res.add(rep.tally())
		mergeLayers(res, rep.Layers, false)
	}
	return nil
}

// sameArtefacts checks that every file of wantDir exists in gotDir with
// identical bytes; exact also requires the same file set. An empty
// wantDir checks nothing.
func sameArtefacts(wantDir, gotDir string, exact bool) error {
	if wantDir == "" {
		return nil
	}
	want, err := os.ReadDir(wantDir)
	if err != nil {
		return err
	}
	var errs []error
	for _, e := range want {
		a, err := os.ReadFile(filepath.Join(wantDir, e.Name()))
		if err != nil {
			return err
		}
		b, err := os.ReadFile(filepath.Join(gotDir, e.Name()))
		switch {
		case err != nil:
			errs = append(errs, fmt.Errorf("%s: %w", e.Name(), err))
		case !bytes.Equal(a, b):
			errs = append(errs, fmt.Errorf("%s differs from %s", filepath.Join(gotDir, e.Name()), filepath.Join(wantDir, e.Name())))
		}
	}
	if exact {
		got, err := os.ReadDir(gotDir)
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			errs = append(errs, fmt.Errorf("%s holds %d artefacts, %s %d", gotDir, len(got), wantDir, len(want)))
		}
	}
	return errors.Join(errs...)
}
