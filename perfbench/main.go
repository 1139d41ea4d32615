// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time, checks every output it produces against a
// reference made in set-up, and prints one JSON result line.
//
// Usage (normally through run.sh, which builds this program and the
// experiments CLI first):
//
//	perfbench -experiments BIN -work DIR -workload repro-cold|fleet-join|fleet-resume
//	          -seed N -seconds S -trace 0|1
//
// With -trace 0 the result carries the end-to-end metrics (wall_s,
// cpu_s, peak_rss_mb, setup_s); with -trace 1 it carries the per-layer
// metrics, taken by timing calls into each module's public functions
// from this package. The line before the result repeats every metric
// with its sample count, the host record and the error rate. NOTES.md
// explains the workloads and the layer-to-metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// runBudget bounds one whole run, children included: a run must end
// well inside three minutes even when a child hangs.
const runBudget = 170 * time.Second

// fleetShards is the A100 fleet size of the fleet workloads.
const fleetShards = 32

// childEnv is set in the environment of the fleet child processes this
// program starts of itself.
const childEnv = "PERFBENCH_CHILD"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	expBin   string // built cmd/experiments, for repro-cold
	work     string // scratch directory of this run
	shards   int    // fleet size of the fleet workloads; tests make it smaller
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: repro-cold, fleet-join or fleet-resume")
		seed     = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 10, "measured seconds (at least one unit of work always runs)")
		trace    = fs.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
		expBin   = fs.String("experiments", "", "path to the built cmd/experiments binary")
		work     = fs.String("work", "", "scratch directory; a per-run subdirectory is made and removed")
		child    = fs.String("child", "", "internal: run a fleet workload's measured phase in this process")
		ref      = fs.String("ref", "", "internal: reference directory of a -child run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		expBin: *expBin, work: *work, shards: fleetShards}
	if *child != "" {
		if err := runChild(*child, *ref, cfg, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench child:", err)
			return 1
		}
		return 0
	}
	res, err := runWorkload(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runWorkload sets up a scratch directory, runs the workload and
// attaches the host record.
func runWorkload(cfg config, logw io.Writer) (*result, error) {
	if cfg.work == "" {
		return nil, fmt.Errorf("-work is required")
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.work = dir

	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	steal := startSteal()
	var res *result
	switch cfg.workload {
	case "repro-cold":
		res, err = reproCold(ctx, cfg, logw)
	case "fleet-join", "fleet-resume":
		res, err = fleetWorkload(ctx, cfg, logw)
	default:
		return nil, fmt.Errorf("unknown workload %q (want repro-cold, fleet-join or fleet-resume)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	res.workload, res.seed, res.trace = cfg.workload, cfg.seed, cfg.trace
	res.host = hostInfo()
	res.host.StealFrac = steal()
	if cfg.trace {
		res.set("host.steal_frac", res.host.StealFrac, "ratio", 1)
	}
	return res, nil
}

// metric is one reported figure; N is its sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is what one run reports.
type result struct {
	workload string
	seed     uint64
	trace    bool
	host     host
	tally
	metrics map[string]metric
}

func (r *result) set(name string, v float64, unit string, n int) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// print writes the detail line (every metric with its sample count,
// the host record, failures) and then the result line, which must be
// the last line of standard output.
func (r *result) print(w io.Writer) error {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	detail := struct {
		Workload  string            `json:"workload"`
		Seed      uint64            `json:"seed"`
		Trace     bool              `json:"trace"`
		Host      host              `json:"host"`
		Metrics   map[string]metric `json:"metrics"`
		ErrorRate float64           `json:"error_rate"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Failures  []string          `json:"failures,omitempty"`
	}{r.workload, r.seed, r.trace, r.host, r.metrics, errRate, r.attempted, r.failed, r.reasons}
	type plain struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]plain `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, map[string]plain{}}
	for _, n := range names {
		final.Metrics[n] = plain{r.metrics[n].Value, r.metrics[n].Unit}
	}
	for _, line := range []any{detail, final} {
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}

// tally counts attempted and failed operations; the first failures are
// kept with their reasons.
type tally struct {
	attempted, failed int
	reasons           []string
}

// op records one attempted operation, failed when err is non-nil.
func (t *tally) op(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.reasons) < 20 {
		t.reasons = append(t.reasons, err.Error())
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, r := range o.reasons {
		if len(t.reasons) < 20 {
			t.reasons = append(t.reasons, r)
		}
	}
}
