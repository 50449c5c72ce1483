package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"polyufc/internal/server"
)

// The harness addresses its files from the checkout root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestSeedFixesTheRequestLists(t *testing.T) {
	for _, w := range workloadList {
		a, b, c := planHash(w.plan(1), 500), planHash(w.plan(1), 500), planHash(w.plan(2), 500)
		if a != b {
			t.Errorf("%s: seed 1 gave two different request lists", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same request list", w.name)
		}
	}
}

// Every request a plan can send — fills and window — must have a committed
// answer, or the correctness check silently skips it.
func TestExpectedTablesCoverTheUniverse(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for group, reqs := range universe() {
		if len(exp[group]) != len(reqs) {
			t.Errorf("group %q: %d digests, want %d", group, len(exp[group]), len(reqs))
		}
	}
	for _, w := range workloadList {
		p := w.plan(3)
		var reqs []request
		for _, ph := range p.phases {
			reqs = append(reqs, ph.Fill...)
		}
		for i := 0; i < 3000; i++ {
			r, ok := p.window(i)
			if !ok {
				break
			}
			reqs = append(reqs, r)
		}
		for _, r := range reqs {
			if r.Group != "" && r.Idx >= len(exp[r.Group]) {
				t.Fatalf("%s: request %s %s has no expected digest", w.name, r.Path, r.Body)
			}
		}
	}
}

func TestPersistMixedKeySetsAreDisjoint(t *testing.T) {
	p := planPersistMixed(5)
	class := map[string]byte{}
	counts := map[byte]int{}
	for i := 0; ; i++ {
		r, ok := p.window(i)
		if !ok {
			break
		}
		if prev, seen := class[r.Body]; seen && (prev != r.Class || r.Class != 'A') {
			t.Fatalf("key %s seen as %c and again as %c: only A keys repeat", r.Body, prev, r.Class)
		}
		class[r.Body] = r.Class
		if i < persistBlock {
			counts[r.Class]++
		}
	}
	if c := len(kernelNames()); counts['B'] != persistB || counts['C'] != c || counts['A'] != persistBlock-persistB-c {
		t.Errorf("first block mix = %v", counts)
	}
}

func TestPercentile(t *testing.T) {
	var s []time.Duration
	for i := 100; i >= 1; i-- {
		s = append(s, time.Duration(i))
	}
	for q, want := range map[float64]time.Duration{0.5: 50, 0.95: 95, 0.99: 99, 1: 100, 0.001: 1} {
		if got := percentile(s, q); got != want {
			t.Errorf("percentile(1..100, %g) = %d, want %d", q, got, want)
		}
	}
	if got := percentile([]time.Duration{7}, 0.95); got != 7 {
		t.Errorf("single sample: %d", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("no samples: %d", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := trimmedMean([]float64{9, 1, 2, 3, 100}); got != (2+3+9)/3.0 {
		t.Errorf("trimmed mean = %g", got)
	}
	if got := trimmedMean([]float64{1, 2}); got != 1.5 {
		t.Errorf("trimmed mean of two = %g", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "core.compile", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "stage.tile", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "stage.cachemodel", StartNS: 40, EndNS: 90, CacheHit: true},
		{ID: 4, Parent: 3, Name: "inner", StartNS: 50, EndNS: 60},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 20, 2: 30, 3: 40, 4: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	spans = append(spans, span{ID: 5, Name: "server.handle", StartNS: 100, EndNS: 230})
	m := replayMetrics(replay{spans: spans, traced: 3, untraced: 2})
	for name, want := range map[string]float64{
		"core.compile_ms": 100e-6, "core.self_ms": 20e-6, "server.overhead_cold_ms": 30e-6,
		"pipeline.snapshot_load_us": 50e-3, "workloads.build_ms": 0, "trace.overhead_ratio": 1.5,
	} {
		if math.Abs(m[name]-want) > 1e-12 {
			t.Errorf("%s = %g, want %g", name, m[name], want)
		}
	}
}

func TestMeasuredDigestIgnoresAccumulatorFields(t *testing.T) {
	a := []byte("{\n  \"measured\": {\n    \"baseline_edp\": 2,\n    \"capped_seconds\": 1,\n    \"capped_joules\": 1,\n    \"capped_edp\": 1,\n    \"edp_gain_pct\": 50\n  }\n}\n")
	b := bytes.Replace(a, []byte(`"capped_seconds": 1,`), []byte(`"capped_seconds": 0.9999999999999999,`), 1)
	r := measuredReq("gemm", 0, 0)
	if digestOf(r, a) != digestOf(r, b) {
		t.Error("digest of a measured answer depends on an accumulator field")
	}
	if digestOf(compileReq("gemm", 0, 0), a) == digestOf(compileReq("gemm", 0, 0), b) {
		t.Error("digest of a compile answer ignores a changed byte")
	}
	if err := measuredConsistent(a); err != nil {
		t.Errorf("consistent answer rejected: %v", err)
	}
	if err := measuredConsistent(bytes.Replace(a, []byte(`"edp_gain_pct": 50`), []byte(`"edp_gain_pct": 10`), 1)); err == nil {
		t.Error("inconsistent edp_gain_pct accepted")
	}
}

func TestCapsOnGrid(t *testing.T) {
	grids := map[string]grid{"BDW": {1.2, 2.8, 0.1}}
	ok := []byte(`{"arch":"BDW","nests":[{"label":"a","cap_ghz":1.7},{"label":"b","cap_ghz":0,"socket_caps":[2.8,1.2]}]}`)
	if err := capsOnGrid(ok, grids); err != nil {
		t.Errorf("on-grid caps rejected: %v", err)
	}
	for _, bad := range []string{
		`{"arch":"BDW","nests":[{"label":"a","cap_ghz":1.75}]}`,
		`{"arch":"BDW","nests":[{"label":"a","cap_ghz":2.9}]}`,
		`{"arch":"XYZ","nests":[]}`,
	} {
		if capsOnGrid([]byte(bad), grids) == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}

// BENCHMARK.json is the harness's own manifest: every workload and metric
// it names is emitted, and the other way round.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifest()) {
		t.Error("BENCHMARK.json differs from `bench/run.sh -manifest`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadList {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q / better %q", d.Name, d.Unit, d.Better)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
}

// Both run modes emit through report, which refuses a run that lacks a
// declared metric; here the cheap sources are shown to produce exactly the
// S- and T-sourced names, nothing undeclared.
func TestLayerSourcesMatchTheTable(t *testing.T) {
	got := statszMetrics(server.Statsz{}, server.Statsz{}, 1)
	for k, v := range replayMetrics(replay{untraced: 1}) {
		got[k] = v
	}
	declared := map[string]bool{}
	for _, d := range perLayer {
		if d.Source == "S" || d.Source == "T" {
			declared[d.Name] = true
			if _, ok := got[d.Name]; !ok {
				t.Errorf("%s (source %s) is declared but not produced", d.Name, d.Source)
			}
		}
	}
	for k := range got {
		if !declared[k] {
			t.Errorf("%s is produced but not declared as an S or T layer metric", k)
		}
	}
	if _, err := report(perLayer, got); err == nil {
		t.Error("report accepted a run without the client- and D-sourced metrics")
	}
}
