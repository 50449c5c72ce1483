package ir

// RewritePattern is a local rewrite applied greedily over a function's op
// list. Match inspects the ops at index i and returns how many ops the
// rewrite consumes (0 = no match); Rewrite returns the replacement ops.
type RewritePattern interface {
	// Match returns the number of ops consumed starting at i, or 0.
	Match(ops []Op, i int) int
	// Rewrite returns the ops replacing the matched window.
	Rewrite(ops []Op, i, n int) []Op
}

// ApplyPatterns runs the patterns greedily to a fixpoint over each
// function's op list, returning the number of rewrites applied.
func ApplyPatterns(m *Module, patterns ...RewritePattern) int {
	applied := 0
	for _, f := range m.Funcs {
		for {
			changed := false
			for i := 0; i < len(f.Ops); i++ {
				for _, p := range patterns {
					n := p.Match(f.Ops, i)
					if n <= 0 {
						continue
					}
					repl := p.Rewrite(f.Ops, i, n)
					next := make([]Op, 0, len(f.Ops)-n+len(repl))
					next = append(next, f.Ops[:i]...)
					next = append(next, repl...)
					next = append(next, f.Ops[i+n:]...)
					f.Ops = next
					applied++
					changed = true
					break
				}
				if changed {
					break
				}
			}
			if !changed {
				break
			}
		}
	}
	return applied
}

// RedundantCapPattern removes a set_uncore_cap immediately followed by
// another set_uncore_cap (the first has no effect), and collapses
// consecutive caps with equal frequency.
type RedundantCapPattern struct{}

// Match implements RewritePattern.
func (RedundantCapPattern) Match(ops []Op, i int) int {
	c1, ok := ops[i].(*SetUncoreCap)
	if !ok || i+1 >= len(ops) {
		return 0
	}
	if _, ok := ops[i+1].(*SetUncoreCap); ok {
		return 1 // drop the shadowed cap
	}
	_ = c1
	return 0
}

// Rewrite implements RewritePattern.
func (RedundantCapPattern) Rewrite(ops []Op, i, n int) []Op { return nil }

// EqualCapPattern removes a cap whose frequency equals the previous
// still-active cap (no frequency change, so the runtime call is redundant).
type EqualCapPattern struct{}

// Match implements RewritePattern.
func (EqualCapPattern) Match(ops []Op, i int) int {
	cur, ok := ops[i].(*SetUncoreCap)
	if !ok {
		return 0
	}
	// Find the previous cap; if it has the same frequency, this one is a
	// no-op.
	for j := i - 1; j >= 0; j-- {
		if prev, ok := ops[j].(*SetUncoreCap); ok {
			if prev.GHz == cur.GHz {
				return 1
			}
			return 0
		}
	}
	return 0
}

// Rewrite implements RewritePattern.
func (EqualCapPattern) Rewrite(ops []Op, i, n int) []Op { return nil }
