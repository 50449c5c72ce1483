package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"polyufc/internal/workloads"
)

// request is one POST the load generator sends. Group and Idx address its
// expected response digest (see check.go); Class tags persist-mixed traffic
// ('A' journal re-request, 'B' first touch of a CAS-only key, 'C' new key).
type request struct {
	Path  string
	Body  string
	Group string
	Idx   int
	Class byte
	// Measured marks a measured /v1/search: part of its answer is checked
	// by consistency, not by digest (see check.go).
	Measured bool
}

// boot says how one daemon process of a workload is started. The same value
// renders the real binary's flags and the in-process server.Config, so the
// traced replay boots what the timed run booted.
type boot struct {
	PlatformFile bool // also serve platforms/2-socket-bdw.json
	CAS          bool // -cas-dir <out>/cas
	Journal      bool // -journal <out>/serve.jsonl
	Resume       bool // -resume
	// DriftOff disables the calibration-drift watchdog. Test-size kernels
	// sit outside the model's validity range (residual ~0.8 against the
	// 0.25 threshold), so with the default a strict daemon answers 503 for
	// the whole backend after three measured requests.
	DriftOff bool
}

// phase is one daemon lifetime during set-up: boot, send the fill, and
// (unless it is the last phase) SIGTERM and wait.
type phase struct {
	Boot boot
	Fill []request
}

// plan is everything a workload does for one seed. Set-up runs the phases
// in order; the last phase's daemon then serves the window. window(i) is
// the i-th request of the timed stream, false once the stream is used up.
type plan struct {
	phases []phase
	window func(i int) (request, bool)
	// block is the stratification period of the stream: every block holds
	// the same mix of kernels, so a window that ends on a block boundary
	// has measured the same work whatever the seed. 0 = no structure.
	block int
	// shareCPU runs client and daemon on one CPU (see pin.go).
	shareCPU bool
	// traceCount is the fixed length of the real-binary window of a traced
	// run (so /statsz counts repeat exactly); replayCount the number of
	// requests the in-process traced replay covers.
	traceCount, replayCount int
}

type workload struct {
	name string
	why  string
	plan func(seed int64) plan
}

var workloadList = []workload{
	{"cold-compile", "distinct /v1/compile keys, every cache rung misses: cachemodel, pluto/tiling, isl and poly do the work", planColdCompile},
	{"warm-hit", "Zipf re-requests of a 256-key working set answered by core.Cache: server, parallel.Memo and HTTP do the work, the compiler none", planWarmHit},
	{"stage-reuse", "new whole-result keys over a primed analysis prefix: pipeline snapshots, model, search and cap stages do the work, on 1- and 2-socket backends", planStageReuse},
	{"persist-mixed", "journal re-requests beside CAS first touches and fsynced new keys after a resume boot: journal and cas, read and write", planPersistMixed},
	{"measured-search", "distinct measured /v1/search at test size: hw, cachesim and interp do the work", planMeasuredSearch},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// The request universe. Kernels are workloads.All(); tile sizes 4..130.
var (
	basePlatforms = []string{"bdw", "rpl"}
	allPlatforms  = []string{"bdw", "rpl", "2s-bdw"}
	objectives    = []string{"edp", "energy", "performance"}
)

const (
	numTiles = 64 // pluto:size=4, 6, ..., 130
	numEps   = 6  // epsilon 0.00100, 0.00101, ..., 0.00105
)

func tileSize(i int) int       { return 4 + 2*i }
func epsilon(i int) float64    { return 0.001 + float64(i)*0.00001 }
func combos() int              { return len(basePlatforms) * numTiles }
func comboOf(c int) (p, t int) { return c / numTiles, c % numTiles }

func kernelNames() []string {
	var out []string
	for _, k := range workloads.All() {
		out = append(out, k.Name)
	}
	return out
}

// heavyKernels each cost 45-70 ms to compile; fills that only need a key
// to exist (the warm working set, the journal and CAS key sets) skip them
// so set-up stays a few seconds.
var heavyKernels = map[string]bool{
	"lu": true, "ludcmp": true, "sdpa-bert": true, "sdpa-gemma2": true, "conv2d-wideresnet": true,
}

// lightKernels compile in under ~5 ms; the CAS-only key set B of
// persist-mixed draws from them because only the key's existence matters.
var lightKernels = []string{
	"atax", "bicg", "deriche", "durbin", "floyd-warshall", "gemm", "gemver", "gesummv", "jacobi-1d",
	"lm-head-gpt2", "lm-head-llama2", "mvt", "nussinov", "seidel-2d", "syr2k", "syrk", "trisolv",
}

func compileBody(kernel, plat string, tile int) string {
	return fmt.Sprintf(`{"kernel":%q,"platform":%q,"tiling":"pluto:size=%d"}`, kernel, plat, tile)
}

func measuredBody(kernel, plat string, tile int) string {
	return fmt.Sprintf(`{"kernel":%q,"platform":%q,"tiling":"pluto:size=%d","size":"test","measure":true}`, kernel, plat, tile)
}

func compileReq(kernel string, p, t int) request {
	return request{
		Path:  "/v1/compile",
		Body:  compileBody(kernel, basePlatforms[p], tileSize(t)),
		Group: "compile " + kernel + " " + basePlatforms[p],
		Idx:   t,
	}
}

func measuredReq(kernel string, p, t int) request {
	return request{
		Path:     "/v1/search",
		Body:     measuredBody(kernel, basePlatforms[p], tileSize(t)),
		Group:    "measured " + kernel + " " + basePlatforms[p],
		Idx:      t,
		Measured: true,
	}
}

func stageReq(endpoint, kernel, plat, objective string, e int) request {
	return request{
		Path:  "/v1/" + endpoint,
		Body:  fmt.Sprintf(`{"kernel":%q,"platform":%q,"objective":%q,"epsilon":%g}`, kernel, plat, objective, epsilon(e)),
		Group: "stage-" + endpoint + " " + kernel + " " + plat + " " + objective,
		Idx:   e,
	}
}

// prewarm touches every kernel once on a key outside the universe (tile
// size 2), so the window does not pay first-use costs of the runtime.
func prewarm(path string, body func(kernel, plat string, tile int) string) []request {
	var out []request
	for _, k := range kernelNames() {
		out = append(out, request{Path: path, Body: body(k, "rpl", 2)})
	}
	return out
}

// balancedCombos is one kernel's order through its 128 (platform, tile)
// combinations: platforms alternate and tile sizes follow a bit-reversal
// (van der Corput) sequence, so any run of consecutive entries covers both
// platforms and the tile range evenly — compile cost depends on both. The
// seed picks where the sequence starts, an XOR scramble of the tile index
// and which platform goes first; all three keep the even cover.
func balancedCombos(rng *rand.Rand) []int {
	start, mask, flip := rng.Intn(numTiles), rng.Intn(numTiles), rng.Intn(2)
	out := make([]int, combos())
	for i := range out {
		t := int(bits.Reverse8(uint8((i/2+start)%numTiles))>>2) ^ mask
		out[i] = ((i+flip)%2)*numTiles + t
	}
	return out
}

// stratified orders the (kernel, platform, tile) universe in cycles: cycle
// c holds every kernel once, in a fresh seeded order, each with the c-th
// entry of that kernel's balancedCombos. Two seeds therefore measure the
// same amount of every kind of work after the same number of cycles, on
// different keys in a different order. Requests for which skip returns true
// are left out of their kernel's sequence before the cycles are cut, so a
// cycle still holds every kernel; the list ends with the last whole cycle.
func stratified(rng *rand.Rand, kernels []string, skip func(request) bool, mk func(string, int, int) request) []request {
	lists := make([][]request, len(kernels))
	cycles := combos()
	for i, k := range kernels {
		for _, c := range balancedCombos(rng) {
			p, t := comboOf(c)
			if r := mk(k, p, t); skip == nil || !skip(r) {
				lists[i] = append(lists[i], r)
			}
		}
		cycles = min(cycles, len(lists[i]))
	}
	var out []request
	for c := 0; c < cycles; c++ {
		for _, ki := range rng.Perm(len(kernels)) {
			out = append(out, lists[ki][c])
		}
	}
	return out
}

func sliceWindow(reqs []request) func(int) (request, bool) {
	return func(i int) (request, bool) {
		if i >= len(reqs) {
			return request{}, false
		}
		return reqs[i], true
	}
}

func planColdCompile(seed int64) plan {
	rng := rand.New(rand.NewSource(seed))
	ks := kernelNames()
	return plan{
		phases:      []phase{{Fill: prewarm("/v1/compile", compileBody)}},
		window:      sliceWindow(stratified(rng, ks, nil, compileReq)),
		block:       len(ks),
		traceCount:  8 * len(ks),
		replayCount: 4 * len(ks),
	}
}

func planMeasuredSearch(seed int64) plan {
	rng := rand.New(rand.NewSource(seed))
	ks := kernelNames()
	return plan{
		phases:      []phase{{Boot: boot{DriftOff: true}, Fill: prewarm("/v1/search", measuredBody)}},
		window:      sliceWindow(stratified(rng, ks, nil, measuredReq)),
		block:       len(ks),
		traceCount:  3 * len(ks),
		replayCount: 2 * len(ks),
	}
}

// warmSetSize is the working set of warm-hit: below the daemon's 1024-entry
// LRU bound, so after the fill every request is a core.Cache hit.
const warmSetSize = 256

func planWarmHit(seed int64) plan {
	rng := rand.New(rand.NewSource(seed))
	var ks []string
	for _, k := range kernelNames() {
		if !heavyKernels[k] {
			ks = append(ks, k)
		}
	}
	// 32 kernels x 8 seeded (platform, tile) combinations = 256 keys, in
	// popularity order: every 32 consecutive ranks hold each kernel once, in
	// the same (alphabetical) order whatever the seed. A warm answer costs
	// what its bytes cost, and they differ fourfold between kernels, so the
	// seed draws the variants and the traffic, not which kernels are hot.
	var set []request
	variants := make([][]int, len(ks))
	for i := range variants {
		variants[i] = balancedCombos(rng)
	}
	for c := 0; len(set) < warmSetSize; c++ {
		for i, k := range ks {
			p, t := comboOf(variants[i][c])
			set = append(set, compileReq(k, p, t))
		}
	}
	// Zipf-Mandelbrot, P(rank k) ~ (8+k)^-1.1: the hottest key draws ~4 %
	// of the traffic and the top ten ~30 %. (With offset 1 one key of
	// seed-dependent size would draw 18 %.)
	zipf := rand.NewZipf(rng, 1.1, 8, warmSetSize-1)
	ranks := make([]uint8, 1<<20)
	for i := range ranks {
		ranks[i] = uint8(zipf.Uint64())
	}
	return plan{
		phases: []phase{{Fill: set}},
		window: func(i int) (request, bool) {
			if i >= len(ranks) {
				return request{}, false
			}
			return set[ranks[i]], true
		},
		shareCPU:    true,
		traceCount:  20000,
		replayCount: 2000,
	}
}

// stage-reuse primes every (kernel, platform) pair and then sends, per block
// of stageBlock requests, every (pair, endpoint) once in a seeded order: the
// mix of kernels, platforms and endpoints is the same in every block of
// every seed (request cost grows with a kernel's nest count and doubles on
// the 2-socket backend). Cycle c asks pair p's compile with the
// (objective, epsilon) combination c + offset(p) and its search with the
// combination nine further on, modulo the 18 there are, so a whole-result
// key comes round again after 9 blocks = 1998 requests: by then it has left
// the 1024-entry core.Cache and every request misses it.
const stageCombos = 18 // 3 objectives x numEps epsilons

func planStageReuse(seed int64) plan {
	rng := rand.New(rand.NewSource(seed))
	type pair struct{ kernel, plat string }
	var pairs []pair
	var fill []request
	for _, k := range kernelNames() {
		for _, plat := range allPlatforms {
			pairs = append(pairs, pair{k, plat})
			fill = append(fill, request{
				Path: "/v1/characterize",
				Body: fmt.Sprintf(`{"kernel":%q,"platform":%q}`, k, plat),
			})
		}
	}
	rng.Shuffle(len(fill), func(i, j int) { fill[i], fill[j] = fill[j], fill[i] })
	offsets := make([]int, len(pairs))
	for i := range offsets {
		offsets[i] = rng.Intn(stageCombos)
	}
	endpoints := []string{"compile", "search"}
	block := len(pairs) * len(endpoints)
	// The orders of 72 blocks are drawn up front; the stream repeats them
	// after that (the keys have long been evicted by then).
	orders := make([][]int, 4*stageCombos)
	for i := range orders {
		orders[i] = rng.Perm(block)
	}
	return plan{
		phases: []phase{{Boot: boot{PlatformFile: true}, Fill: fill}},
		window: func(i int) (request, bool) {
			c := i / block
			slot := orders[c%len(orders)][i%block]
			pi, e := slot/len(endpoints), slot%len(endpoints)
			combo := (c + offsets[pi] + e*stageCombos/2) % stageCombos
			return stageReq(endpoints[e], pairs[pi].kernel, pairs[pi].plat, objectives[combo/numEps], combo%numEps), true
		},
		block:       block,
		shareCPU:    true,
		traceCount:  9 * block,
		replayCount: 3 * block,
	}
}

// persist-mixed traffic per block of 1850 requests: first the writes — one
// new key C of every kernel (37, so each block computes the same mix and the
// five 45-70 ms kernels do not land in one stretch of the window and not in
// the next) and 4 first touches of the CAS-only set B, in a seeded order —
// then 1809 re-requests of A. B is touched once per key, so its share is what
// bounds the fill: 4 per block keeps |B| = 200 enough for 50 blocks, about a
// minute.
//
// The writes are 2.2 % of the requests and two thirds of the wall time. They
// come in one run per block, not scattered among the reads, because a read
// that follows a write within a few requests is slow (0.34 ms right after
// one, 0.13 ms a dozen requests later: the compile has emptied the CPU's
// caches and left the collector work) and slower still when the host is:
// with writes scattered at 7 % the median read sat on that slope and moved
// 25 % between runs of one seed, at 2 % still 1.4 times as much as the
// throughput did. Now a dozen reads per block are disturbed and the median
// read is an undisturbed one; what reads cost beside writes still shows in
// throughput_rps.
const (
	persistBlock = 1850
	persistB     = 4
	persistSetB  = 200
)

func planPersistMixed(seed int64) plan {
	rng := rand.New(rand.NewSource(seed))
	ks := kernelNames()
	used := map[string]bool{}
	taken := func(r request) bool { return used[r.Body] }
	// A: every kernel but the heavy five, on both platforms, at one seeded
	// tile size each.
	var setA []request
	for _, k := range ks {
		if heavyKernels[k] {
			continue
		}
		for p := range basePlatforms {
			r := compileReq(k, p, rng.Intn(numTiles))
			r.Class = 'A'
			used[r.Body] = true
			setA = append(setA, r)
		}
	}
	// B: a seeded draw of cheap keys not in A.
	setB := stratified(rng, lightKernels, taken, compileReq)[:persistSetB]
	for i := range setB {
		setB[i].Class = 'B'
		used[setB[i].Body] = true
	}
	// C: the rest of the universe in stratified order, one cycle per block.
	setC := stratified(rng, ks, taken, compileReq)
	for i := range setC {
		setC[i].Class = 'C'
	}
	// The window: per block the writes (B and C) in a seeded order, then the
	// reads.
	var win []request
	for b, c := 0, 0; b+persistB <= len(setB) && c+len(ks) <= len(setC); b, c = b+persistB, c+len(ks) {
		writes := append(append([]request(nil), setB[b:b+persistB]...), setC[c:c+len(ks)]...)
		rng.Shuffle(len(writes), func(i, j int) { writes[i], writes[j] = writes[j], writes[i] })
		win = append(win, writes...)
		for len(win)%persistBlock != 0 {
			win = append(win, setA[rng.Intn(len(setA))])
		}
	}
	return plan{
		phases: []phase{
			{Boot: boot{CAS: true}, Fill: setB},
			{Boot: boot{CAS: true, Journal: true}, Fill: setA},
			{Boot: boot{CAS: true, Journal: true, Resume: true}},
		},
		window:      sliceWindow(win),
		block:       persistBlock,
		shareCPU:    true,
		traceCount:  2 * persistBlock,
		replayCount: persistBlock,
	}
}

// planHash digests a plan's set-up and the first n window requests, so a
// test can show that a seed fixes the inputs.
func planHash(p plan, n int) string {
	h := sha256.New()
	for _, ph := range p.phases {
		fmt.Fprintf(h, "%+v\n", ph.Boot)
		for _, r := range ph.Fill {
			fmt.Fprintf(h, "%s %s\n", r.Path, r.Body)
		}
	}
	for i := 0; i < n; i++ {
		r, ok := p.window(i)
		if !ok {
			break
		}
		fmt.Fprintf(h, "%s %s\n", r.Path, r.Body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// universe lists every request the expected tables cover, grouped; -gen
// walks it and bench_test.go checks the committed tables against it.
func universe() map[string][]request {
	out := map[string][]request{}
	add := func(r request) { out[r.Group] = append(out[r.Group], r) }
	for _, k := range kernelNames() {
		for p := range basePlatforms {
			for t := 0; t < numTiles; t++ {
				add(compileReq(k, p, t))
				add(measuredReq(k, p, t))
			}
		}
		for _, plat := range allPlatforms {
			for _, obj := range objectives {
				for e := 0; e < numEps; e++ {
					add(stageReq("compile", k, plat, obj, e))
					add(stageReq("search", k, plat, obj, e))
				}
			}
		}
	}
	return out
}

func sortedGroups(u map[string][]request) []string {
	var names []string
	for g := range u {
		names = append(names, g)
	}
	sort.Strings(names)
	return names
}
