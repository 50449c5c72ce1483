package cachemodel

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"polyufc/internal/ir"
	"polyufc/internal/isl"
	"polyufc/internal/platform"
	"polyufc/internal/pluto"
	"polyufc/internal/workloads"
)

// shippedHierarchies returns the first socket of every description the repo
// ships — the two embedded paper machines and the platforms/*.json files:
// its cache hierarchy and the thread count a parallel nest is modeled at.
func shippedHierarchies(t testing.TB) map[string]*platform.Socket {
	out := map[string]*platform.Socket{"bdw": &backend(t, "BDW").Sockets[0], "rpl": &backend(t, "RPL").Sockets[0]}
	files, err := filepath.Glob("../../platforms/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no shipped platform descriptions: %v", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := platform.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[filepath.Base(path)] = &b.Sockets[0]
	}
	return out
}

// One Geometry, measured once under the default options, evaluated against
// every shipped hierarchy under every option Evaluate reads, is Analyze on
// that hierarchy with those options: the counting carries nothing of the
// machine but the line size, and nothing of Threads or FullyAssoc. (The
// values themselves are pinned by analyze.golden.json; this test pins the
// sharing.) Mutation-checked: a Measure that folds opts.Threads into its
// instance counts fails here.
func TestOneGeometryServesEveryHierarchy(t *testing.T) {
	hierarchies := shippedHierarchies(t)
	kernels := []string{"gemm", "2mm", "lu", "jacobi-2d", "trisolv", "conv2d-alexnet"}
	if testing.Short() {
		kernels = kernels[:2]
	}
	for _, kernel := range kernels {
		for _, tile := range []int64{4, 32} {
			popts := pluto.DefaultOptions()
			popts.TileSize = tile
			eachTiledNest(t, kernel, popts, func(label string, nest *ir.Nest) {
				geoms := map[int64]*Geometry{} // by line size
				for name, s := range hierarchies {
					cache := s.CacheConfig()
					line := cache.Levels[0].LineSize
					if geoms[line] == nil {
						g, err := Measure(nest, line)
						if err != nil {
							t.Fatalf("%s/%s tile %d: %v", kernel, label, tile, err)
						}
						geoms[line] = g
					}
					for _, mod := range []func(*Options){
						func(*Options) {},
						func(o *Options) { o.FullyAssoc = true },
						func(o *Options) { o.Threads = s.Threads },
						func(o *Options) { o.Threads, o.FullyAssoc = 3, true },
					} {
						opts := DefaultOptions()
						mod(&opts)
						want, err := Analyze(nest, cache, opts)
						if err != nil {
							t.Fatal(err)
						}
						got, err := geoms[line].Evaluate(cache, opts)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s/%s tile %d on %s %+v:\n got %+v\nwant %+v", kernel, label, tile, name, opts, got, want)
						}
					}
				}
			})
		}
	}
}

// A geometry counts lines of one size; a hierarchy with another line size
// is refused, not silently mis-evaluated.
func TestEvaluateRejectsOtherLineSize(t *testing.T) {
	eachTiledNest(t, "gemm", pluto.DefaultOptions(), func(_ string, nest *ir.Nest) {
		g, err := Measure(nest, 128)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Evaluate(backend(t, "BDW").Sockets[0].CacheConfig(), DefaultOptions()); err == nil || !strings.Contains(err.Error(), "line size") {
			t.Fatalf("a 128-byte geometry evaluated on a 64-byte hierarchy: err = %v", err)
		}
		wide := backend(t, "BDW").Sockets[0].CacheConfig()
		for i := range wide.Levels {
			wide.Levels[i].LineSize = 128
		}
		got, err := g.Evaluate(wide, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want, err := Analyze(nest, wide, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("128-byte line:\n got %+v\nwant %+v", got, want)
		}
	})
	if _, err := Measure(&ir.Nest{}, 0); err == nil {
		t.Fatal("Measure accepted a zero line size")
	}
}

// Every member of a reference group, measured as its statement's only
// access, has its group's footprint over every suffix window: a footprint
// reads an access's IV coefficients and element size, never its constant
// offsets, so the one row Measure keeps per group counts exactly what one
// row per member would. Checked on every statement of every kernel at test
// and bench size, Pluto-tiled at 4, 32 and 130. Mutation-checked: grouping
// the accesses by array alone fails here.
func TestGroupMembersShareOneFootprintRow(t *testing.T) {
	const lineSize = 64
	var rows, members int
	for _, k := range workloads.All() {
		for _, size := range []workloads.SizeClass{workloads.Test, workloads.Bench} {
			for _, tile := range []int64{4, 32, 130} {
				eachTiledNestAt(t, k.Name, size, pluto.Options{TileSize: tile}, func(label string, nest *ir.Nest) {
					var counts isl.CountMemo
					for _, si := range nest.Statements() {
						sg, err := measureStatement(si, lineSize, &counts)
						if err != nil {
							t.Fatalf("%s/%s tile %d: %v", k.Name, label, tile, err)
						}
						if sg.full == 0 {
							continue
						}
						for gi, g := range referenceGroups(si.Stmt.Accesses) {
							rows++
							members += len(g)
							for _, a := range g {
								// The member measured as its statement's only access.
								alone := *si.Stmt
								alone.Accesses = []ir.Access{a}
								sia := si
								sia.Stmt = &alone
								ma, err := measureStatement(sia, lineSize, &counts)
								if err != nil {
									t.Fatal(err)
								}
								if got, row := ma.groups[0].fps, sg.groups[gi].fps; !slices.Equal(got, row) {
									t.Fatalf("%s/%s size %v tile %d %s: member %s%v has footprints %+v, its group's row %+v",
										k.Name, label, size, tile, si.Stmt.Name, a.Array.Name, a.Index, got, row)
								}
							}
						}
					}
				})
			}
		}
	}
	t.Logf("%d group rows stand for %d distinct accesses", rows, members)
}

// seidel-2d's statement reads A at nine offsets of (i, j) and writes
// A[i][j]: one reference group of nine members, the write counted once
// with the read it duplicates.
func TestSeidelFormsOneGroup(t *testing.T) {
	k, err := workloads.ByName("seidel-2d")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := k.BuildAffine(workloads.Test)
	if err != nil {
		t.Fatal(err)
	}
	nest := mod.Funcs[0].Ops[0].(*ir.Nest)
	accs := nest.Statements()[0].Stmt.Accesses
	groups := referenceGroups(accs)
	if len(accs) != 10 || len(groups) != 1 || len(groups[0]) != 9 {
		t.Fatalf("%d accesses form %d groups %v, want 10 accesses in one group of 9", len(accs), len(groups), groups)
	}
	write := accs[9]
	if !write.Write || write.Index[0].Const != 0 || write.Index[1].Const != 0 {
		t.Fatalf("last access %+v is not the write A[i][j]", write)
	}
	for _, m := range groups[0] {
		if m.Write {
			t.Fatalf("the write joined the group as a member of its own: %v", groups[0])
		}
	}
	if !slices.ContainsFunc(groups[0], func(m ir.Access) bool { return reflect.DeepEqual(m.Index, write.Index) }) {
		t.Fatalf("no member reads A[i][j]: %v", groups[0])
	}
	g, err := Measure(nest, 64)
	if err != nil {
		t.Fatal(err)
	}
	if sg := g.stmts[0]; len(sg.groups) != 1 || sg.groups[0].members != 9 {
		t.Fatalf("Measure keeps %d rows, want one of 9 members", len(sg.groups))
	}
}
