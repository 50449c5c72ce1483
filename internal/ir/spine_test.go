package ir

import (
	"crypto/sha256"
	"reflect"
	"testing"
)

func TestCopySpineOwnsOnlyTheSpine(t *testing.T) {
	m := buildCloneFixture()
	m.Seal()
	text := m.Print()
	c := m.CopySpine()
	if c.hash != nil {
		t.Fatal("a spine copy carries the sealed hash")
	}
	if c.Print() != text {
		t.Fatal("the spine copy prints differently")
	}
	if c.Funcs[0] == m.Funcs[0] {
		t.Fatal("funcs shared")
	}
	for i, op := range m.Funcs[0].Ops {
		cop := c.Funcs[0].Ops[i]
		n, isNest := op.(*Nest)
		if !isNest {
			if cop != op {
				t.Fatalf("op %d (%s) copied; only nest headers are", i, op.OpName())
			}
			continue
		}
		cn := cop.(*Nest)
		if cn == n || cn.Root != n.Root || cn.Origin() != n.Origin() {
			t.Fatalf("nest %s: want a new header over the same loops", n.Label)
		}
		cn.Label, cn.Root = "scribbled", nil
	}
	c.Funcs[0].Ops[0] = &SetUncoreCap{GHz: 9}
	c.Funcs[0].Name = "scribbled"
	if m.Print() != text || m.ContentHash() != sha256.Sum256([]byte(text)) {
		t.Fatal("writing the spine copy reached the sealed module")
	}
}

func TestSealStoresTheTextHash(t *testing.T) {
	m := buildCloneFixture()
	want := sha256.Sum256([]byte(m.Print()))
	if m.ContentHash() != want {
		t.Fatal("an unsealed module's hash is not its text's")
	}
	m.Seal()
	if m.hash == nil || *m.hash != want || m.ContentHash() != want {
		t.Fatal("Seal did not store the text's hash")
	}
	if !reflect.DeepEqual(m, m.Clone()) {
		t.Fatal("a sealed module's clone is not deep-equal to it")
	}
}
