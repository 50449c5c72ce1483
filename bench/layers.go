package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"polyufc/internal/cachemodel"
	"polyufc/internal/cas"
	"polyufc/internal/hw"
	"polyufc/internal/interp"
	"polyufc/internal/ir"
	"polyufc/internal/journal"
	"polyufc/internal/model"
	"polyufc/internal/plantable"
	"polyufc/internal/pluto"
	"polyufc/internal/poly"
	"polyufc/internal/roofline"
	"polyufc/internal/scop"
	"polyufc/internal/search"
	"polyufc/internal/server"
	"polyufc/internal/workloads"
)

// layerKernels are the kernels the direct-call passes run on: the ones that
// set the cold-compile tail (lu, ludcmp, cholesky, the two sdpa), the
// Pluto-heavy ones (conv2d, adi, heat-3d) and gemm as the everyday case.
var layerKernels = []string{"lu", "ludcmp", "cholesky", "sdpa-bert", "sdpa-gemma2", "conv2d-alexnet", "adi", "heat-3d", "gemm"}

func nestsOf(mod *ir.Module) []*ir.Nest {
	var out []*ir.Nest
	for _, f := range mod.Funcs {
		for _, op := range f.Ops {
			if n, ok := op.(*ir.Nest); ok {
				out = append(out, n)
			}
		}
	}
	return out
}

// timed runs f inside a span and returns how long it took.
func timed(tr *tracer, name string, f func() error) (time.Duration, error) {
	id := tr.begin(name, 0, -1)
	start := time.Now()
	err := f()
	d := time.Since(start)
	tr.end(id)
	if err != nil {
		err = fmt.Errorf("%s: %w", name, err)
	}
	return d, err
}

// allocs runs f and returns the heap objects and bytes it allocated. The
// passes are single-threaded, so the process-wide counters are f's own.
func allocs(f func() error) (objects, bytes float64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err = f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc), err
}

// payload is one captured response, replayed into the journal and CAS
// passes.
type payload struct {
	path string
	body []byte
}

// layerPasses times calls into the public functions of single layers, on
// the BDW backend, and returns the D-sourced metrics. Per-kernel figures
// are means over layerKernels at bench size; per-call figures means over
// all calls made.
func layerPasses(tr *tracer, payloads []payload, dir string) (map[string]float64, error) {
	out := map[string]float64{}
	target, err := roofline.ResolveName("bdw")
	if err != nil {
		return nil, err
	}
	p, c := target.Platform, target.Constants

	// Compiler layers, kernel by kernel.
	var plutoT, cmT time.Duration
	var plutoAllocs, cmAllocs, cmBytes float64
	var exportT, countT, symT, searchT time.Duration
	var exports, counts, syms, searches, steps int
	var models []*model.Model
	for _, name := range layerKernels {
		k, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		mod, err := k.BuildAffine(workloads.Bench)
		if err != nil {
			return nil, err
		}
		for _, nest := range nestsOf(mod) {
			var tiled pluto.Result
			n, _, err := allocs(func() error {
				d, err := timed(tr, "pluto.optimize", func() (err error) {
					tiled, err = pluto.Optimize(nest, pluto.DefaultOptions())
					return err
				})
				plutoT += d
				return err
			})
			if err != nil {
				return nil, err
			}
			plutoAllocs += n

			var cm *cachemodel.Result
			n, b, err := allocs(func() error {
				d, err := timed(tr, "cachemodel.analyze", func() (err error) {
					cm, err = cachemodel.Analyze(tiled.Nest, p.Cache, cachemodel.DefaultOptions())
					return err
				})
				cmT += d
				return err
			})
			if err != nil {
				return nil, err
			}
			cmAllocs += n
			cmBytes += b

			d, err := timed(tr, "scop.export", func() error { _, err := scop.Export(nest); return err })
			if err != nil {
				return nil, err
			}
			exportT += d
			exports++
			for _, si := range nest.Statements() {
				d, err := timed(tr, "isl.count", func() error { _, err := si.Domain.Count(1 << 22); return err })
				if err != nil {
					return nil, err
				}
				countT += d
				counts++
				for _, bs := range si.Domain.Basics {
					d, err := timed(tr, "isl.count_symbolic", func() error { _, err := bs.CountSymbolic(); return err })
					if err != nil {
						return nil, err
					}
					symT += d
					syms++
				}
			}

			m := model.New(c, model.FromCacheModel(cm, 1))
			models = append(models, m)
			d, err = timed(tr, "search.run", func() error {
				res, err := search.Run(context.Background(), m, p.UncoreSteps(), search.DefaultOptions())
				steps += res.Evaluated
				return err
			})
			if err != nil {
				return nil, err
			}
			searchT += d
			searches++
		}
	}
	kernels := float64(len(layerKernels))
	out["pluto.optimize_ms"] = ms(plutoT) / kernels
	out["pluto.optimize_allocs"] = plutoAllocs / kernels
	out["cachemodel.analyze_ms"] = ms(cmT) / kernels
	out["cachemodel.analyze_allocs"] = cmAllocs / kernels
	out["cachemodel.analyze_bytes"] = cmBytes / kernels
	out["scop.export_us"] = us(exportT) / float64(exports)
	out["isl.count_us"] = us(countT) / float64(counts)
	out["isl.count_symbolic_us"] = us(symT) / float64(syms)
	out["search.run_us"] = us(searchT) / float64(searches)
	out["search.steps_per_run"] = float64(steps) / float64(searches)

	// poly: the triple summation of a triangular iteration count,
	// sum_{i=0}^{N} sum_{j=0}^{i} sum_{k=j}^{N} (i+1), N symbolic.
	const sumReps = 200
	d, err := timed(tr, "poly.sumvar", func() error {
		for r := 0; r < sumReps; r++ {
			N, i, j := poly.Var(4, 0), poly.Var(4, 1), poly.Var(4, 2)
			body := i.Add(poly.ConstInt(4, 1))
			body = poly.SumVar(body, 3, j, N)
			body = poly.SumVar(body, 2, poly.ConstInt(4, 0), i)
			body = poly.SumVar(body, 1, poly.ConstInt(4, 0), N)
			if body.IsZero() {
				return fmt.Errorf("summation vanished")
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["poly.sumvar_us"] = us(d) / (3 * sumReps)

	// plantable: sweep a table, then look the captured models up in it.
	var table *plantable.Table
	d, err = timed(tr, "plantable.build", func() (err error) {
		table, err = plantable.Build(context.Background(), target, plantable.BuildOptions{})
		return err
	})
	if err != nil {
		return nil, err
	}
	out["plantable.build_ms"] = ms(d)
	const lookupReps = 2000
	d, _ = timed(tr, "plantable.lookup", func() error {
		for r := 0; r < lookupReps; r++ {
			for _, m := range models {
				table.Lookup(m)
			}
		}
		return nil
	})
	out["plantable.lookup_ns"] = float64(d) / float64(lookupReps*len(models))

	// roofline: the boot-time calibration of one backend.
	const calReps = 3
	d, err = timed(tr, "roofline.calibrate", func() error {
		for r := 0; r < calReps; r++ {
			if _, err := roofline.Calibrate(hw.NewMachine(p)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["roofline.calibrate_ms"] = ms(d) / calReps

	if err := hwPasses(tr, p, out); err != nil {
		return nil, err
	}
	if err := storePasses(tr, payloads, dir, out); err != nil {
		return nil, err
	}
	return out, warmHandlePass(tr, out)
}

// hwPasses times the simulated-hardware path on the layer kernels at test
// size: the cache-simulator profile, the interpreter alone, and the
// measurement of a profile.
func hwPasses(tr *tracer, p *hw.Platform, out map[string]float64) error {
	var profileT, interpT time.Duration
	var accesses int64
	var profiles []*hw.CacheProfile
	for _, name := range layerKernels {
		k, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		mod, err := k.BuildAffine(workloads.Test)
		if err != nil {
			return err
		}
		for _, nest := range nestsOf(mod) {
			d, err := timed(tr, "hw.profile", func() error {
				prof, err := hw.ProfileNest(nest, p.Cache)
				if err == nil {
					profiles = append(profiles, prof)
					accesses += prof.Loads + prof.Stores
				}
				return err
			})
			if err != nil {
				return err
			}
			profileT += d
			d, err = timed(tr, "interp.run", func() error { _, err := interp.RunNest(nest, interp.NullTracer{}); return err })
			if err != nil {
				return err
			}
			interpT += d
		}
	}
	n := float64(len(profiles))
	out["hw.profile_ms"] = ms(profileT) / n
	out["interp.run_ms"] = ms(interpT) / n
	// The profile is the interpreter driving the simulator; what the
	// interpreter costs alone is subtracted to get the simulator's rate.
	out["cachesim.accesses_per_s"] = float64(accesses) / (profileT - interpT).Seconds()

	const measureReps = 2000
	m := hw.NewMachine(p)
	d, _ := timed(tr, "hw.measure", func() error {
		for r := 0; r < measureReps; r++ {
			for _, prof := range profiles {
				m.Measure(prof)
			}
		}
		return nil
	})
	out["hw.measure_us"] = us(d) / (measureReps * n)
	return nil
}

// storePasses replays captured responses through journal and cas: record
// (append + fsync) and get every one, then reopen the files to time the
// boot-side replay and scan.
func storePasses(tr *tracer, payloads []payload, dir string, out map[string]float64) error {
	if len(payloads) == 0 {
		return fmt.Errorf("no captured responses to replay into journal and cas")
	}
	n := float64(len(payloads))
	key := func(i int) string {
		sum := sha256.Sum256([]byte(fmt.Sprint("bench-payload-", i)))
		return hex.EncodeToString(sum[:])
	}
	// decode turns a response body into the value the daemon journals.
	decode := func(pl payload) (any, error) {
		var v any = &server.SearchResponse{}
		if strings.HasSuffix(pl.path, "/compile") {
			v = &server.CompileResponse{}
		}
		return v, json.Unmarshal(pl.body, v)
	}

	jpath := filepath.Join(dir, "layers.jsonl")
	if err := os.Remove(jpath); err != nil && !os.IsNotExist(err) {
		return err
	}
	j, err := journal.Open(jpath)
	if err != nil {
		return err
	}
	var recordT, getT time.Duration
	for i, pl := range payloads {
		v, err := decode(pl)
		if err != nil {
			return err
		}
		d, err := timed(tr, "journal.record", func() error { return j.Record(key(i), v) })
		if err != nil {
			return err
		}
		recordT += d
	}
	for i, pl := range payloads {
		v, _ := decode(pl)
		d, err := timed(tr, "journal.get", func() error {
			if ok, err := j.Get(key(i), v); err != nil || !ok {
				return fmt.Errorf("entry %d: found=%v err=%v", i, ok, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
		getT += d
	}
	if err := j.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(jpath)
	if err != nil {
		return err
	}
	d, err := timed(tr, "journal.open", func() (err error) { j, err = journal.Open(jpath); return err })
	if err != nil {
		return err
	}
	if err := j.Close(); err != nil {
		return err
	}
	out["journal.record_us"] = us(recordT) / n
	out["journal.get_us"] = us(getT) / n
	out["journal.open_ms"] = ms(d)
	out["journal.bytes_per_entry"] = float64(fi.Size()) / n

	cdir := filepath.Join(dir, "layers-cas")
	if err := os.RemoveAll(cdir); err != nil {
		return err
	}
	store, err := cas.Open(cdir, nil)
	if err != nil {
		return err
	}
	var putT, casGetT time.Duration
	for i, pl := range payloads {
		var compact bytes.Buffer
		if err := json.Compact(&compact, pl.body); err != nil {
			return err
		}
		d, err := timed(tr, "cas.put", func() error { return store.Put(key(i), compact.Bytes()) })
		if err != nil {
			return err
		}
		putT += d
	}
	for i := range payloads {
		d, err := timed(tr, "cas.get", func() error {
			if _, ok := store.Get(key(i)); !ok {
				return fmt.Errorf("entry %d missing", i)
			}
			return nil
		})
		if err != nil {
			return err
		}
		casGetT += d
	}
	d, err = timed(tr, "cas.open", func() error { _, err := cas.Open(cdir, nil); return err })
	if err != nil {
		return err
	}
	out["cas.put_us"] = us(putT) / n
	out["cas.get_us"] = us(casGetT) / n
	out["cas.open_ms"] = ms(d)
	return nil
}

// warmHandlePass times ServeHTTP of an in-process daemon on a key its
// compile memo already holds: decode, gate, key build, memo hit, encode.
func warmHandlePass(tr *tracer, out map[string]float64) error {
	srv, err := server.New(server.DefaultConfig())
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	r := compileReq("gemm", 0, 7)
	post := func() error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.Path, strings.NewReader(r.Body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body)
		}
		return nil
	}
	if err := post(); err != nil {
		return err
	}
	const reps = 2000
	d, err := timed(tr, "server.handle_warm", func() error {
		for i := 0; i < reps; i++ {
			if err := post(); err != nil {
				return err
			}
		}
		return nil
	})
	out["server.handle_warm_us"] = us(d) / reps
	return err
}
