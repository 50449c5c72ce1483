// Package scop exports affine nests to an OpenSCoP-style polyhedral
// exchange format (Bastoul 2011) — the representation the paper converts
// kernels into for analysis (Fig. 3 stage 2). The format is JSON-encoded:
// per-statement iteration-domain constraint matrices, 2d+1 schedules, and
// access relations, exactly the payload polyhedral tools exchange.
package scop

import (
	"encoding/json"
	"fmt"

	"polyufc/internal/ir"
	"polyufc/internal/isl"
)

// Matrix is a constraint matrix in OpenSCoP layout: each row is
// [eq/ineq flag, coefficients..., constant]; flag 0 means equality,
// 1 means >= 0.
type Matrix struct {
	Rows [][]int64 `json:"rows"`
	// Cols documents the column meaning: iterators then constant.
	Cols []string `json:"cols"`
}

// AccessRel is one access relation of a statement.
type AccessRel struct {
	Array string `json:"array"`
	Write bool   `json:"write"`
	// Index rows give each array subscript as coefficients over the
	// statement's iterators plus a constant.
	Index [][]int64 `json:"index"`
}

// Statement is one SCoP statement.
type Statement struct {
	Name      string   `json:"name"`
	Iterators []string `json:"iterators"`
	Domain    Matrix   `json:"domain"`
	// Schedule is the 2d+1 scattering vector: syntactic positions
	// interleaved with iterator levels, encoded as rows mapping output
	// dims to [iterators..., const].
	Schedule [][]int64   `json:"schedule"`
	Accesses []AccessRel `json:"accesses"`
	Flops    int64       `json:"flops"`
}

// SCoP is one static control part: an exported affine nest.
type SCoP struct {
	Name       string      `json:"name"`
	Arrays     []ArrayDecl `json:"arrays"`
	Statements []Statement `json:"statements"`
}

// ArrayDecl describes an array of the SCoP.
type ArrayDecl struct {
	Name     string  `json:"name"`
	ElemSize int64   `json:"elem_size"`
	Dims     []int64 `json:"dims"`
}

// Export converts a nest into its SCoP form.
func Export(nest *ir.Nest) (*SCoP, error) {
	sc := &SCoP{Name: nest.Label}
	for _, a := range nest.Operands() {
		sc.Arrays = append(sc.Arrays, ArrayDecl{Name: a.Name, ElemSize: a.ElemSize, Dims: a.Dims})
	}
	for _, si := range nest.Statements() {
		st, err := exportStatement(si)
		if err != nil {
			return nil, fmt.Errorf("scop: statement %s: %w", si.Stmt.Name, err)
		}
		sc.Statements = append(sc.Statements, st)
	}
	if len(sc.Statements) == 0 {
		return nil, fmt.Errorf("scop: nest %s has no statements", nest.Label)
	}
	return sc, nil
}

func exportStatement(si ir.StatementInfo) (Statement, error) {
	ivs := si.IVNames()
	st := Statement{
		Name:      si.Stmt.Name,
		Iterators: ivs,
		Flops:     si.Stmt.Flops,
	}
	// Domain matrix from the isl constraints.
	st.Domain.Cols = append(append([]string(nil), ivs...), "1")
	for _, b := range si.Domain.Basics {
		for _, cv := range b.Constraints() {
			flag := int64(1)
			if cv.Kind == isl.EQ {
				flag = 0
			}
			row := make([]int64, 0, len(ivs)+2)
			row = append(row, flag)
			row = append(row, cv.Coef[:len(ivs)]...)
			row = append(row, cv.Const)
			st.Domain.Rows = append(st.Domain.Rows, row)
		}
	}
	// 2d+1 schedule: [pos0, iv0, pos1, iv1, ..., posd], each row over
	// [iterators..., const].
	width := len(ivs) + 1
	for level := 0; level <= len(ivs); level++ {
		pos := int64(0)
		if level < len(si.Position) {
			pos = int64(si.Position[level])
		}
		posRow := make([]int64, width)
		posRow[width-1] = pos
		st.Schedule = append(st.Schedule, posRow)
		if level < len(ivs) {
			ivRow := make([]int64, width)
			ivRow[level] = 1
			st.Schedule = append(st.Schedule, ivRow)
		}
	}
	// Access relations.
	for _, acc := range si.Stmt.Accesses {
		rel := AccessRel{Array: acc.Array.Name, Write: acc.Write}
		for _, e := range acc.Index {
			row := make([]int64, width)
			for _, t := range e.Terms() {
				idx := indexOf(ivs, t.IV)
				if idx < 0 {
					return st, fmt.Errorf("access references unknown iterator %q", t.IV)
				}
				row[idx] = t.C
			}
			row[width-1] = e.Const
			rel.Index = append(rel.Index, row)
		}
		st.Accesses = append(st.Accesses, rel)
	}
	return st, nil
}

func indexOf(ss []string, s string) int {
	for i, x := range ss {
		if x == s {
			return i
		}
	}
	return -1
}

// MarshalJSON renders the SCoP as indented JSON.
func (s *SCoP) Marshal() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// DomainSet rebuilds the isl iteration domain of an exported statement —
// the consumer-side entry point for polyhedral tools reading the SCoP.
func (st *Statement) DomainSet() isl.Set {
	sp := isl.NewSetSpace(nil, st.Iterators)
	b := isl.Universe(sp)
	n := len(st.Iterators)
	for _, row := range st.Domain.Rows {
		e := sp.ConstExpr(row[n+1])
		for i := 0; i < n; i++ {
			e.VarCoef[i] = row[1+i]
		}
		if row[0] == 0 {
			b.AddEQ(e)
		} else {
			b.AddGE(e)
		}
	}
	return isl.FromBasic(b)
}
