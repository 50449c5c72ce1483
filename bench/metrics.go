package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef is one named metric of the benchmark. The two tables below
// are the single source of truth: BENCHMARK.json is rendered from them
// (-manifest) and bench_test.go fails when the committed file drifts.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Source says where a per-layer number comes from: "client" (the load
	// generator), "S" (a /statsz delta on the real binary), "T" (a span of
	// the in-process traced replay) or "D" (a direct call into the layer).
	Source string
}

// endToEnd are the metrics a caller of the daemon sees. They are measured
// on the real binary with tracing off.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_req", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers, named after this repo's
// packages. Stage times from S are means per request of the window.
var perLayer = []metricDef{
	{Name: "server.latency_p95_ms", Unit: "ms", Better: "lower", Source: "client"},
	{Name: "server.latency_p99_ms", Unit: "ms", Better: "lower", Source: "client"},
	{Name: "server.latency_max_ms", Unit: "ms", Better: "lower", Source: "client"},
	{Name: "server.requests_ok", Unit: "count", Better: "higher", Source: "client"},
	{Name: "server.requests_failed", Unit: "count", Better: "lower", Source: "client"},
	{Name: "server.resp_bytes", Unit: "B", Better: "lower", Source: "client"},
	{Name: "server.gate_rejected", Unit: "count", Better: "lower", Source: "S"},
	{Name: "server.handle_warm_us", Unit: "us", Better: "lower", Source: "D"},
	{Name: "server.overhead_cold_ms", Unit: "ms", Better: "lower", Source: "T"},
	{Name: "parallel.gate_admitted", Unit: "count", Better: "higher", Source: "S"},
	{Name: "parallel.gate_cancelled", Unit: "count", Better: "lower", Source: "S"},
	{Name: "core.cache_hits", Unit: "count", Better: "higher", Source: "S"},
	{Name: "core.cache_misses", Unit: "count", Better: "lower", Source: "S"},
	{Name: "core.cache_evictions", Unit: "count", Better: "lower", Source: "S"},
	{Name: "core.compile_ms", Unit: "ms", Better: "lower", Source: "T"},
	{Name: "core.self_ms", Unit: "ms", Better: "lower", Source: "T"},
	{Name: "core.preprocess_ms", Unit: "ms", Better: "lower", Source: "S"},
	{Name: "core.cap_stages_ms", Unit: "ms", Better: "lower", Source: "S"},
	{Name: "workloads.build_ms", Unit: "ms", Better: "lower", Source: "T"},
	{Name: "pipeline.stagecache_hits", Unit: "count", Better: "higher", Source: "S"},
	{Name: "pipeline.stagecache_misses", Unit: "count", Better: "lower", Source: "S"},
	{Name: "pipeline.stagecache_evictions", Unit: "count", Better: "lower", Source: "S"},
	{Name: "pipeline.snapshot_load_us", Unit: "us", Better: "lower", Source: "T"},
	{Name: "tiling.tile_ms", Unit: "ms", Better: "lower", Source: "S"},
	{Name: "tiling.tile_runs", Unit: "count", Better: "lower", Source: "S"},
	{Name: "tiling.tile_cachehits", Unit: "count", Better: "higher", Source: "S"},
	{Name: "pluto.optimize_ms", Unit: "ms", Better: "lower", Source: "D"},
	{Name: "pluto.optimize_allocs", Unit: "count", Better: "lower", Source: "D"},
	{Name: "cachemodel.stage_ms", Unit: "ms", Better: "lower", Source: "S"},
	{Name: "cachemodel.stage_runs", Unit: "count", Better: "lower", Source: "S"},
	{Name: "cachemodel.stage_cachehits", Unit: "count", Better: "higher", Source: "S"},
	{Name: "cachemodel.analyze_ms", Unit: "ms", Better: "lower", Source: "D"},
	{Name: "cachemodel.analyze_allocs", Unit: "count", Better: "lower", Source: "D"},
	{Name: "cachemodel.analyze_bytes", Unit: "B", Better: "lower", Source: "D"},
	{Name: "isl.count_us", Unit: "us", Better: "lower", Source: "D"},
	{Name: "isl.count_symbolic_us", Unit: "us", Better: "lower", Source: "D"},
	{Name: "poly.sumvar_us", Unit: "us", Better: "lower", Source: "D"},
	{Name: "scop.export_us", Unit: "us", Better: "lower", Source: "D"},
	{Name: "roofline.characterize_ms", Unit: "ms", Better: "lower", Source: "S"},
	{Name: "roofline.calibrate_ms", Unit: "ms", Better: "lower", Source: "D"},
	{Name: "model.fit_ms", Unit: "ms", Better: "lower", Source: "S"},
	{Name: "search.stage_ms", Unit: "ms", Better: "lower", Source: "S"},
	{Name: "search.stage_runs", Unit: "count", Better: "lower", Source: "S"},
	{Name: "search.run_us", Unit: "us", Better: "lower", Source: "D"},
	{Name: "search.steps_per_run", Unit: "count", Better: "lower", Source: "D"},
	{Name: "plantable.lookup_ns", Unit: "ns", Better: "lower", Source: "D"},
	{Name: "plantable.build_ms", Unit: "ms", Better: "lower", Source: "D"},
	{Name: "journal.appended", Unit: "count", Better: "lower", Source: "S"},
	{Name: "journal.replayed", Unit: "count", Better: "higher", Source: "S"},
	{Name: "journal.record_us", Unit: "us", Better: "lower", Source: "D"},
	{Name: "journal.get_us", Unit: "us", Better: "lower", Source: "D"},
	{Name: "journal.open_ms", Unit: "ms", Better: "lower", Source: "D"},
	{Name: "journal.bytes_per_entry", Unit: "B", Better: "lower", Source: "D"},
	{Name: "cas.hits", Unit: "count", Better: "higher", Source: "S"},
	{Name: "cas.warm_hits", Unit: "count", Better: "higher", Source: "S"},
	{Name: "cas.misses", Unit: "count", Better: "lower", Source: "S"},
	{Name: "cas.puts", Unit: "count", Better: "lower", Source: "S"},
	{Name: "cas.put_bytes", Unit: "B", Better: "lower", Source: "S"},
	{Name: "cas.put_us", Unit: "us", Better: "lower", Source: "D"},
	{Name: "cas.get_us", Unit: "us", Better: "lower", Source: "D"},
	{Name: "cas.open_ms", Unit: "ms", Better: "lower", Source: "D"},
	{Name: "hw.profilecache_hits", Unit: "count", Better: "higher", Source: "S"},
	{Name: "hw.profilecache_misses", Unit: "count", Better: "lower", Source: "S"},
	{Name: "hw.cap_applies", Unit: "count", Better: "lower", Source: "S"},
	{Name: "hw.cap_writes", Unit: "count", Better: "lower", Source: "S"},
	{Name: "hw.cap_retries", Unit: "count", Better: "lower", Source: "S"},
	{Name: "hw.cap_restores", Unit: "count", Better: "lower", Source: "S"},
	{Name: "hw.profile_ms", Unit: "ms", Better: "lower", Source: "D"},
	{Name: "hw.measure_us", Unit: "us", Better: "lower", Source: "D"},
	{Name: "cachesim.accesses_per_s", Unit: "1/s", Better: "higher", Source: "D"},
	{Name: "interp.run_ms", Unit: "ms", Better: "lower", Source: "D"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Source: "T"},
}

// runSeconds is how long one timed window measures; the driver passes it
// back as --seconds.
const runSeconds = 18

// manifest renders BENCHMARK.json from the tables above and the workload
// list.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadList {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(out, '\n')
}

// value is one reported metric as the driver reads it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report renders the metrics named by defs from got. Every declared metric
// must have been measured: a run that lacks one is an error, not a zero.
func report(defs []metricDef, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			missing = append(missing, d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return out, nil
}

// percentile returns the q-quantile (0 < q <= 1) of the samples by the
// nearest-rank rule: the smallest sample with at least q of the samples at
// or below it. It sorts its argument.
func percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(q * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1]
}

// median of a few float64 readings (set-up repetitions).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// trimmedMean is the mean of v without its largest and its smallest reading
// (with three readings or more). It is how per-segment readings of a window
// are combined: the host runs at two speeds 29 % apart and flips between
// them every few seconds, so a median over segments snaps to whichever speed
// held for more than half of the window and reads 29 % apart between two
// runs that were 45 % and 55 % fast; a mean moves with the share. Dropping
// one reading at each end keeps a single burst of interference out.
func trimmedMean(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) >= 3 {
		s = s[1 : len(s)-1]
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
