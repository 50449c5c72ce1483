package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"polyufc/internal/core"
	"polyufc/internal/server"
)

// client is the single closed-loop caller: one keep-alive connection, the
// next request sent only after the previous reply was read in full.
type client struct {
	hc   *http.Client
	base string
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) post(path, body string) (status int, data []byte, lat time.Duration, err error) {
	start := time.Now()
	resp, err := c.hc.Post(c.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(start), err
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return data, err
}

func (c *client) statsz() (server.Statsz, error) {
	var st server.Statsz
	data, err := c.get("/statsz")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(data, &st)
}

// setup runs a plan's phases on fresh state under dir and returns the last
// phase's daemon, healthy and filled. A fill request that fails or answers
// wrongly is an error: the window would not measure what it claims to.
func setup(p plan, dir string, c *client, exp expected) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for i, ph := range p.phases {
		d, err := startDaemon(ph.Boot.args(dir)...)
		if err != nil {
			return nil, err
		}
		c.base = d.base
		for _, r := range ph.Fill {
			status, body, _, err := c.post(r.Path, r.Body)
			if err := exp.verdict(r, status, body, err); err != nil {
				_ = d.stop()
				return nil, fmt.Errorf("set-up phase %d: %w", i, err)
			}
		}
		if i == len(p.phases)-1 {
			return d, nil
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("plan has no phases")
}

// window is what the load generator saw over one timed stream.
type window struct {
	lats      []time.Duration
	attempted int
	failed    int
	respBytes int64
	wall      time.Duration
	classes   map[byte]int
	// bodies keeps the correct answer of each distinct request for the
	// cap-grid check after the window; firstFailure explains a non-zero
	// failed.
	bodies       map[string][]byte
	firstFailure string
}

// runWindow sends p's stream until more(i, elapsed) says stop (or the
// stream is used up), checking every reply against the expected tables.
func runWindow(c *client, p plan, exp expected, more func(i int, elapsed time.Duration) bool) window {
	w := window{classes: map[byte]int{}, bodies: map[string][]byte{}}
	start := time.Now()
	for i := 0; more(i, time.Since(start)); i++ {
		r, ok := p.window(i)
		if !ok {
			break
		}
		status, body, lat, err := c.post(r.Path, r.Body)
		w.attempted++
		w.lats = append(w.lats, lat)
		w.respBytes += int64(len(body))
		w.classes[r.Class]++
		if err := exp.verdict(r, status, body, err); err != nil {
			w.fail("%v", err)
		} else if key := r.Path + r.Body; w.bodies[key] == nil {
			w.bodies[key] = body
		}
	}
	w.wall = time.Since(start)
	return w
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if w.firstFailure == "" {
		w.firstFailure = fmt.Sprintf(format, args...)
	}
}

// checkGrids fails the window's distinct answers whose caps are off the
// served backends' uncore grids.
func (w *window) checkGrids(c *client) error {
	data, err := c.get("/v1/platforms")
	if err != nil {
		return err
	}
	grids, err := parseGrids(data)
	if err != nil {
		return err
	}
	for _, body := range w.bodies {
		if err := capsOnGrid(body, grids); err != nil {
			w.fail("%v", err)
		}
	}
	return nil
}

// result is the line the driver reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// Set-up is repeated so its time can be reported as a median: at least
// three times, and for set-ups of a few milliseconds (a bare boot) until a
// second has been spent or fifteen were made.
const (
	minSetups    = 3
	maxSetups    = 15
	setupSpendTo = time.Second
)

// windowSegments is how many segments a timed window is cut into.
const windowSegments = 12

// mark closes a segment of the timed window: the index of the first request
// after it, the time since the window started, and the daemon's CPU time.
type mark struct {
	end int
	at  time.Duration
	cpu time.Duration
}

// session is what both run modes start from: the workload's plan for the
// seed, the expected tables, a client, and the workload's state directory.
type session struct {
	p   plan
	exp expected
	c   *client
	dir string
}

// begin loads the tables, builds the plan and applies its CPU placement
// (see pin.go) before any daemon starts.
func begin(w workload, seed int64) (session, error) {
	exp, err := loadExpected()
	if err != nil {
		return session{}, err
	}
	p := w.plan(seed)
	if p.shareCPU {
		if err := shareOneCPU(); err != nil {
			return session{}, fmt.Errorf("pin client and daemon to one CPU: %w", err)
		}
	}
	return session{p: p, exp: exp, c: newClient(), dir: filepath.Join(outRoot, w.name)}, nil
}

// runTimed measures the end-to-end metrics of one workload on the real
// binary, tracing off.
func runTimed(w workload, seed int64, seconds float64, human io.Writer) (result, error) {
	s, err := begin(w, seed)
	if err != nil {
		return result{}, err
	}
	p, c, exp, dir := s.p, s.c, s.exp, s.dir

	var d *daemon
	var setups []float64
	for spent := time.Duration(0); ; {
		start := time.Now()
		if d, err = setup(p, dir, c, exp); err != nil {
			return result{}, err
		}
		took := time.Since(start)
		spent += took
		setups = append(setups, took.Seconds())
		if len(setups) >= minSetups && (spent >= setupSpendTo || len(setups) >= maxSetups) {
			break
		}
		if err := d.stop(); err != nil {
			return result{}, err
		}
	}

	// The window is cut into segments of about seconds/windowSegments each,
	// closed on block boundaries; every rate and percentile is taken per
	// segment and the segments' trimmed mean is reported (see trimmedMean).
	limit := time.Duration(seconds * float64(time.Second))
	cpu0, _, err := d.procStat()
	if err != nil {
		return result{}, err
	}
	marks := []mark{{cpu: cpu0}}
	win := runWindow(c, p, exp, func(i int, elapsed time.Duration) bool {
		if p.block > 0 && i%p.block != 0 {
			return true
		}
		if last := marks[len(marks)-1]; i == last.end || elapsed < limit*time.Duration(len(marks))/windowSegments {
			return true
		}
		cpu, _, cerr := d.procStat()
		if cerr != nil {
			err = cerr
			return false
		}
		marks = append(marks, mark{end: i, at: elapsed, cpu: cpu})
		return len(marks) <= windowSegments
	})
	if err != nil {
		return result{}, err
	}
	_, rss, err := d.procStat()
	if err != nil {
		return result{}, err
	}
	if err := win.checkGrids(c); err != nil {
		return result{}, err
	}
	if err := d.stop(); err != nil {
		return result{}, err
	}
	if len(marks) < 2 {
		return result{}, fmt.Errorf("%s: the request stream ended before one segment of the window closed", w.name)
	}

	var thr, p50, cpu []float64
	for k := 1; k < len(marks); k++ {
		a, b := marks[k-1], marks[k]
		n := float64(b.end - a.end)
		thr = append(thr, n/(b.at-a.at).Seconds())
		p50 = append(p50, ms(percentile(win.lats[a.end:b.end], 0.50)))
		cpu = append(cpu, ms(b.cpu-a.cpu)/n)
	}
	ok := win.attempted - win.failed
	got := map[string]float64{
		"setup_s":        median(setups),
		"throughput_rps": trimmedMean(thr),
		"latency_p50_ms": trimmedMean(p50),
		"cpu_ms_per_req": trimmedMean(cpu),
		"peak_rss_mb":    rss,
	}
	metrics, err := report(endToEnd, got)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(human, "%s seed=%d: %d attempted, %d ok, %d failed (failed_ratio %.6f) in %.2f s, %d segments; %d set-ups %.3v s; not gated: p95 %.4g ms, p99 %.4g ms\n",
		w.name, seed, win.attempted, ok, win.failed, float64(win.failed)/float64(win.attempted), win.wall.Seconds(), len(marks)-1, len(setups), setups,
		ms(percentile(win.lats, 0.95)), ms(percentile(win.lats, 0.99)))
	if win.firstFailure != "" {
		fmt.Fprintf(human, "  first failure: %s\n", win.firstFailure)
	}
	printMetrics(human, endToEnd, metrics)
	return result{Correct: win.failed == 0, Attempted: win.attempted, Failed: win.failed, Metrics: metrics}, nil
}

func printMetrics(w io.Writer, defs []metricDef, m map[string]value) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.Name, m[d.Name].Value, d.Unit)
	}
}

// statszMetrics turns the /statsz change across a window into the S-sourced
// layer metrics. Stage times are means per request of the window.
func statszMetrics(a, b server.Statsz, requests int) map[string]float64 {
	n := float64(requests)
	stage := func(name string) (runs, hits, totalMS float64) {
		x, y := a.Stages[name], b.Stages[name]
		return float64(y.Runs - x.Runs), float64(y.CacheHits - x.CacheHits), y.TotalMS - x.TotalMS
	}
	tileRuns, tileHits, tileMS := stage(core.StageTile)
	cmRuns, cmHits, cmMS := stage(core.StageCacheModel)
	searchRuns, searchHits, searchMS := stage(core.StageSearch)
	_, _, preMS := stage(core.StagePreprocess)
	_, _, charMS := stage(core.StageCharacterize)
	_, _, fitMS := stage(core.StageModelFit)
	var capMS float64
	for _, s := range []string{core.StageCapInsert, core.StageCapMerge, core.StageRewriteCleanup} {
		_, _, t := stage(s)
		capMS += t
	}
	var applies, writes, retries, restores int64
	for name, y := range b.Breakers {
		x := a.Breakers[name]
		applies += y.Applies - x.Applies
		writes += y.Writes - x.Writes
		retries += y.Retries - x.Retries
		restores += y.Restores - x.Restores
	}
	return map[string]float64{
		"server.gate_rejected":          float64(b.Rejected - a.Rejected),
		"parallel.gate_admitted":        float64(b.Gate.Admitted - a.Gate.Admitted),
		"parallel.gate_cancelled":       float64(b.Gate.Cancelled - a.Gate.Cancelled),
		"core.cache_hits":               float64(b.CompileCache.Hits - a.CompileCache.Hits),
		"core.cache_misses":             float64(b.CompileCache.Misses - a.CompileCache.Misses),
		"core.cache_evictions":          float64(b.CompileCache.Evictions - a.CompileCache.Evictions),
		"core.preprocess_ms":            preMS / n,
		"core.cap_stages_ms":            capMS / n,
		"pipeline.stagecache_hits":      float64(b.StageCache.Hits - a.StageCache.Hits),
		"pipeline.stagecache_misses":    float64(b.StageCache.Misses - a.StageCache.Misses),
		"pipeline.stagecache_evictions": float64(b.StageCache.Evictions - a.StageCache.Evictions),
		"tiling.tile_ms":                tileMS / n,
		"tiling.tile_runs":              tileRuns - tileHits,
		"tiling.tile_cachehits":         tileHits,
		"cachemodel.stage_ms":           cmMS / n,
		"cachemodel.stage_runs":         cmRuns - cmHits,
		"cachemodel.stage_cachehits":    cmHits,
		"roofline.characterize_ms":      charMS / n,
		"model.fit_ms":                  fitMS / n,
		"search.stage_ms":               searchMS / n,
		"search.stage_runs":             searchRuns - searchHits,
		"journal.appended":              float64(b.Journal.Appended - a.Journal.Appended),
		// Replay happens at boot, before the window: report the boot's count.
		"journal.replayed":       float64(b.Journal.Replayed),
		"cas.hits":               float64(b.CAS.Hits - a.CAS.Hits),
		"cas.warm_hits":          float64(b.CAS.WarmHits - a.CAS.WarmHits),
		"cas.misses":             float64(b.CAS.Misses - a.CAS.Misses),
		"cas.puts":               float64(b.CAS.Puts - a.CAS.Puts),
		"cas.put_bytes":          float64(b.CAS.PutBytes - a.CAS.PutBytes),
		"hw.profilecache_hits":   float64(b.ProfileCache.Hits - a.ProfileCache.Hits),
		"hw.profilecache_misses": float64(b.ProfileCache.Misses - a.ProfileCache.Misses),
		"hw.cap_applies":         float64(applies),
		"hw.cap_writes":          float64(writes),
		"hw.cap_retries":         float64(retries),
		"hw.cap_restores":        float64(restores),
	}
}
