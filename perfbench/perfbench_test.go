package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"golatest/internal/core"
	"golatest/internal/hwprofile"
	"golatest/internal/nvml"
	"golatest/internal/obs"
	"golatest/internal/sim/clock"
	"golatest/internal/store"
	"golatest/internal/storenet"
	"golatest/internal/storenet/router"
)

// TestMain lets the test binary stand in for the program when the fleet
// workloads start their child processes.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchMetrics reads the metric names BENCHMARK.json promises.
func benchMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// smoke runs one workload at smoke size and checks that its last two
// output lines carry exactly the named metrics, each with a unit and a
// sample count, and no failure.
func smoke(t *testing.T, cfg config, want []string) {
	t.Helper()
	cfg.seed, cfg.seconds, cfg.shards, cfg.work = 3, 0.2, 4, t.TempDir()
	var out, logs bytes.Buffer
	res, err := runWorkload(cfg, &logs)
	if err != nil {
		t.Fatalf("%s: %v\n%s", cfg.workload, err, logs.String())
	}
	if err := res.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%s: want a detail line and a result line, got %q", cfg.workload, out.String())
	}
	var detail struct {
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &detail); err != nil {
		t.Fatal(err)
	}
	var final map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[1]), &final); err != nil {
		t.Fatal(err)
	}
	if keys := slices.Sorted(maps.Keys(final)); !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("%s: result keys %v", cfg.workload, keys)
	}
	if string(final["correct"]) != "true" || string(final["failed"]) != "0" {
		t.Errorf("%s: result %s", cfg.workload, lines[1])
	}
	got := slices.Sorted(maps.Keys(detail.Metrics))
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("%s trace=%v: metrics %v, want %v", cfg.workload, cfg.trace, got, want)
	}
	for name, m := range detail.Metrics {
		if m.Unit == "" || m.N < 1 {
			t.Errorf("%s: metric %s has unit %q and %d samples", cfg.workload, name, m.Unit, m.N)
		}
	}
}

func TestSmokeEmitsEveryMetric(t *testing.T) {
	endToEnd, perLayer := benchMetrics(t)
	for _, w := range []string{"fleet-join", "fleet-resume"} {
		smoke(t, config{workload: w}, endToEnd)
	}
	if testing.Short() {
		t.Skip("the traced run and repro-cold run the whole quick-scale paper reproduction")
	}
	smoke(t, config{workload: "fleet-join", trace: true}, perLayer)
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, "golatest/cmd/experiments").CombinedOutput(); err != nil {
		t.Fatalf("build experiments: %v\n%s", err, out)
	}
	smoke(t, config{workload: "repro-cold", expBin: bin}, endToEnd)
}

func TestFlippedArtefactByteIsFailure(t *testing.T) {
	want, got := t.TempDir(), t.TempDir()
	for _, name := range []string{"table2.md", "fig7_ranges.csv"} {
		data := []byte("| artefact " + name + " |\n")
		for _, dir := range []string{want, got} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	var tl tally
	tl.op(sameArtefacts(want, got, true))
	path := filepath.Join(got, "fig7_ranges.csv")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[3] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tl.op(sameArtefacts(want, got, true))
	if tl.attempted != 2 || tl.failed != 1 {
		t.Fatalf("tally %+v, want 2 attempted and 1 failed", tl)
	}
}

// tinyCampaign runs a campaign small enough for a unit test.
func tinyCampaign(t *testing.T) (store.Key, *core.Result) {
	t.Helper()
	p := hwprofile.A100()
	dev, err := p.NewDevice(clock.New())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := nvml.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	h, err := lib.DeviceHandleByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Frequencies: []float64{705, 1410}, Blocks: 3, MinMeasurements: 8,
		MaxMeasurements: 16, MaxLatencyHintNs: 120_000_000}
	r, err := core.NewRunner(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	k, err := store.ProfileKey(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, res
}

func TestFlippedBlobByteIsFailure(t *testing.T) {
	k, res := tinyCampaign(t)
	canon, err := store.EncodeBlobV3(k, res)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := store.ValidateBlobBytes(canon, k.Digest)
	if err != nil {
		t.Fatal(err)
	}
	good := [][]byte{bytes.Clone(canon), bytes.Clone(canon)}
	if err := checkCopies(k, good, canon, 2); err != nil {
		t.Fatalf("intact copies: %v", err)
	}
	flipped := [][]byte{bytes.Clone(canon), bytes.Clone(canon)}
	flipped[1][len(canon)/2] ^= 1
	if err := checkCopies(k, flipped, canon, 2); err == nil {
		t.Fatal("a copy with a flipped byte passed the check")
	}
	if err := checkCopies(k, good[:1], canon, 2); err == nil {
		t.Fatal("a missing copy passed the check")
	}
	// A decoded result that differs in one sample fails the comparison
	// fleet-join applies to every hit.
	ref := &fleetRef{blobs: []*store.ValidatedBlob{vb}}
	other, err := store.ValidateBlobBytes(bytes.Clone(canon), k.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.sameResult(0, other.Result()); err != nil {
		t.Fatalf("identical decode: %v", err)
	}
	other.Result().Pairs[0].Samples[0] += 1e-9
	if ref.sameResult(0, other.Result()) == nil {
		t.Fatal("a changed sample compared equal")
	}
}

func TestSeedReproducesInputs(t *testing.T) {
	build := func(seed uint64) ([]refShard, [][]byte) {
		dir := t.TempDir()
		if err := buildFleetRef(seed, 2, dir); err != nil {
			t.Fatal(err)
		}
		ref, err := loadFleetRef(dir)
		if err != nil {
			t.Fatal(err)
		}
		return ref.shards, ref.canon
	}
	s1, c1 := build(5)
	s2, c2 := build(5)
	s3, _ := build(6)
	if !slices.Equal(s1, s2) {
		t.Errorf("same seed, different shards: %v vs %v", s1, s2)
	}
	for i := range c1 {
		if !bytes.Equal(c1[i], c2[i]) {
			t.Errorf("same seed, shard %d blobs differ", i)
		}
	}
	for i := range s1 {
		if s1[i].Digest == s3[i].Digest {
			t.Errorf("seeds 5 and 6 share shard %d's digest", i)
		}
	}
	if !maps.Equal(presentShards(5, 32), presentShards(5, 32)) {
		t.Error("same seed, different finished halves")
	}
	if maps.Equal(presentShards(5, 32), presentShards(6, 32)) {
		t.Error("seeds 5 and 6 finished the same half")
	}
	if slices.Equal(cliArgs(5, 2, "out"), cliArgs(6, 2, "out")) {
		t.Error("the CLI command does not depend on the seed")
	}
}

func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	var members []store.Backend
	for _, u := range []string{"http://127.0.0.1:1", "http://127.0.0.1:2"} {
		c, err := storenet.NewClient(u, storenet.ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, c)
	}
	rt, err := router.New(members, router.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := members[0].(*storenet.Client)
	pairs := map[string][2]store.Backend{
		"client": {c, timeClient(c, newTimings())},
		"router": {rt, timeRouter(rt, newTimings())},
	}
	checks := map[string]func(store.Backend) bool{
		"store.Resilient":        func(b store.Backend) bool { _, ok := b.(store.Resilient); return ok },
		"store.Replicated":       func(b store.Backend) bool { _, ok := b.(store.Replicated); return ok },
		"store.ValidatedGetter":  func(b store.Backend) bool { _, ok := b.(store.ValidatedGetter); return ok },
		"store.ValidatedPutter":  func(b store.Backend) bool { _, ok := b.(store.ValidatedPutter); return ok },
		"obs.TraceContextSetter": func(b store.Backend) bool { _, ok := b.(obs.TraceContextSetter); return ok },
		"router.HealthReporter":  func(b store.Backend) bool { _, ok := b.(router.HealthReporter); return ok },
	}
	for name, p := range pairs {
		for iface, has := range checks {
			if inner, outer := has(p[0]), has(p[1]); inner != outer {
				t.Errorf("%s: inner implements %s = %v, decorator = %v", name, iface, inner, outer)
			}
		}
	}
}
