package pluto

import (
	"fmt"

	"polyufc/internal/ir"
)

// DefaultTileSize matches the Pluto default used by the paper (32).
const DefaultTileSize = 32

// Options configures the Pluto-style optimization pipeline.
type Options struct {
	TileSize int64
}

// DefaultOptions returns the paper's baseline configuration: tile size 32.
func DefaultOptions() Options {
	return Options{TileSize: DefaultTileSize}
}

// Result describes what the pipeline did to a nest.
type Result struct {
	Nest          *ir.Nest
	Tiled         bool
	TileSize      int64
	ParallelLoops []string
	NumDeps       int
	// Permutation records the interchange applied (new level -> original
	// level); nil when no interchange ran.
	Permutation []int
}

// Optimize runs dependence analysis and, on a fully permutable band,
// locality-driven loop interchange (the ikj-style reordering) and
// rectangular tiling, then marks parallel loops, returning a new nest; the
// input is not modified. Nests outside the supported class are returned
// unchanged (untiled) with Tiled=false, matching Pluto's bail-out
// behaviour.
func Optimize(nest *ir.Nest, opts Options) (Result, error) {
	info, err := Analyze(nest)
	if err != nil {
		info = nil // imperfect nests pass through untransformed
	}
	return Transform(nest, info, opts)
}

// Transform is Optimize given the nest's dependences: callers that try
// several option sets on one nest analyze it once. A nil info stands for a
// nest Analyze rejected, which is returned as it is.
func Transform(nest *ir.Nest, info *DepInfo, opts Options) (Result, error) {
	res := Result{Nest: nest, TileSize: opts.TileSize}
	if info == nil {
		return res, nil
	}
	res.NumDeps = len(info.Deps)

	out := cloneNest(nest)
	parLevels := info.ParallelLevels()
	permutable := info.FullyPermutable()

	if permutable && info.Depth >= 2 {
		permuted, perm, err := Permute(nest, parLevels)
		if err == nil {
			out = permuted
			res.Permutation = perm
			// Remap per-level parallelism to the new order.
			remapped := make([]bool, len(parLevels))
			for newL, oldL := range perm {
				remapped[newL] = parLevels[oldL]
			}
			parLevels = remapped
		}
		tiled, err := TileNest(out, opts.TileSize)
		if err != nil {
			return res, err
		}
		out = tiled
		res.Tiled = true
	}
	res.ParallelLoops = markParallel(out, parLevels, res.Tiled, info.Depth)
	res.Nest = out
	return res, nil
}

// TileNest applies rectangular tiling with the given tile size to a
// perfect nest, producing the (2d-deep) tiled nest. Legality is the
// caller's responsibility (see DepInfo.FullyPermutable).
func TileNest(nest *ir.Nest, t int64) (*ir.Nest, error) {
	if t < 2 {
		return nil, fmt.Errorf("pluto: tile size %d too small", t)
	}
	band, body, err := perfectBand(nest)
	if err != nil {
		return nil, err
	}
	n := len(band)
	tileIV := make(map[string]string, n)
	for _, l := range band {
		tileIV[l.IV] = "t_" + l.IV
	}

	// Tile loops: bounds are the original bounds with original IV
	// references replaced by their tile extremes, divided by t.
	tileLoops := make([]*ir.Loop, n)
	for j, l := range band {
		tl := &ir.Loop{IV: tileIV[l.IV]}
		for _, lo := range l.Lo {
			// The first tile containing points >= L is floor(L/t), with
			// L = ceil(e/d): floor(ceil(e/d)/t) = ceil((e + d*(1-t))/(d*t)),
			// matching the Bound convention that lower bounds take ceil.
			e := substituteTileExtreme(lo.Expr, tileIV, t, false)
			e = e.AddConst(lo.Div * (1 - t))
			tl.Lo = append(tl.Lo, ir.BDiv(e, lo.Div*t))
		}
		for _, hi := range l.Hi {
			e := substituteTileExtreme(hi.Expr, tileIV, t, true)
			tl.Hi = append(tl.Hi, ir.BDiv(e, hi.Div*t))
		}
		tileLoops[j] = tl
	}
	// Intra-tile loops: original bounds plus the tile window.
	intraLoops := make([]*ir.Loop, n)
	for j, l := range band {
		il := &ir.Loop{IV: l.IV}
		il.Lo = append(append([]ir.Bound(nil), l.Lo...), ir.BExpr(ir.AffTerm(t, tileIV[l.IV])))
		il.Hi = append(append([]ir.Bound(nil), l.Hi...), ir.BExpr(ir.AffTerm(t, tileIV[l.IV]).AddConst(t-1)))
		intraLoops[j] = il
	}
	// Chain: t_1 ... t_n, i_1 ... i_n, body.
	all := append(append([]*ir.Loop(nil), tileLoops...), intraLoops...)
	for i := 0; i < len(all)-1; i++ {
		all[i].Body = []ir.Node{all[i+1]}
	}
	all[len(all)-1].Body = body
	out := &ir.Nest{Label: nest.Label + "_tiled", Root: all[0]}
	out.SetOrigin(nest.Origin())
	return out, nil
}

// substituteTileExtreme replaces original-IV references in a bound
// expression with the extreme value they take inside their tile:
// for an upper bound (upper=true), positive coefficients take t*tv + t-1
// and negative coefficients t*tv (and vice versa for lower bounds), so the
// tile-loop bound over-approximates the original bound.
func substituteTileExtreme(e ir.AffExpr, tileIV map[string]string, t int64, upper bool) ir.AffExpr {
	out := ir.AffConst(e.Const)
	for _, term := range e.Terms() {
		iv, c := term.IV, term.C
		tv, ok := tileIV[iv]
		if !ok {
			out = out.Add(ir.AffTerm(c, iv))
			continue
		}
		// iv in [t*tv, t*tv + t - 1].
		hiSide := (c > 0) == upper
		out = out.Add(ir.AffTerm(c*t, tv))
		if hiSide {
			out = out.AddConst(c * (t - 1))
		}
	}
	return out
}

// perfectBand extracts the loop chain of a perfect nest and the innermost
// body (which must contain only statements).
func perfectBand(nest *ir.Nest) ([]*ir.Loop, []ir.Node, error) {
	var band []*ir.Loop
	cur := nest.Root
	for cur != nil {
		band = append(band, cur)
		var sub *ir.Loop
		stmts := 0
		for _, node := range cur.Body {
			switch x := node.(type) {
			case *ir.Loop:
				if sub != nil {
					return nil, nil, fmt.Errorf("pluto: nest is not perfect (sibling loops)")
				}
				sub = x
			case *ir.Statement:
				stmts++
			}
		}
		if sub != nil && stmts > 0 {
			return nil, nil, fmt.Errorf("pluto: nest is not perfect (loop and statement siblings)")
		}
		if sub == nil {
			return band, cur.Body, nil
		}
		cur = sub
	}
	return nil, nil, fmt.Errorf("pluto: empty nest")
}

// cloneNest deep-copies the loop structure of a nest; statements are
// shared (they are not mutated by the pipeline).
func cloneNest(n *ir.Nest) *ir.Nest {
	var cloneLoop func(l *ir.Loop) *ir.Loop
	cloneLoop = func(l *ir.Loop) *ir.Loop {
		nl := &ir.Loop{
			IV:       l.IV,
			Lo:       append([]ir.Bound(nil), l.Lo...),
			Hi:       append([]ir.Bound(nil), l.Hi...),
			Parallel: l.Parallel,
		}
		for _, node := range l.Body {
			if sub, ok := node.(*ir.Loop); ok {
				nl.Body = append(nl.Body, cloneLoop(sub))
			} else {
				nl.Body = append(nl.Body, node)
			}
		}
		return nl
	}
	out := &ir.Nest{Label: n.Label, Root: cloneLoop(n.Root)}
	out.SetOrigin(n.Origin())
	return out
}

// markParallel sets the Parallel flag on loops whose level admits it and
// returns the marked IVs. For a tiled nest of original depth n, loop
// levels map as: tile loop j and intra loop j both correspond to original
// level j.
func markParallel(nest *ir.Nest, parLevels []bool, tiled bool, depth int) []string {
	var marked []string
	idx := 0
	nest.WalkLoops(func(l *ir.Loop, _ int) {
		level := idx
		if tiled {
			level = idx % depth
		}
		if level < len(parLevels) && parLevels[level] {
			l.Parallel = true
			marked = append(marked, l.IV)
		}
		idx++
	})
	return marked
}
