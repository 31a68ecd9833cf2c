package cparse

import (
	"sync"
	"testing"

	"repro/internal/cast"
	"repro/internal/samate"
)

// builtinView is what a unit may observe of one builtin symbol.
type builtinView struct {
	sym  *cast.Symbol
	copy cast.Symbol
	typ  string
}

func viewBuiltins() []builtinView {
	var out []builtinView
	for _, s := range builtins().syms {
		out = append(out, builtinView{sym: s, copy: *s, typ: s.Type.String()})
	}
	return out
}

// checkUnitBuiltins asserts a unit starts with the shared builtin
// symbols at IDs 0..N-1 and numbers its own symbols after them.
func checkUnitBuiltins(t *testing.T, name string, unit *cast.TranslationUnit, want []builtinView) {
	t.Helper()
	if len(unit.Symbols) < len(want) {
		t.Fatalf("%s: %d symbols, fewer than the %d builtins", name, len(unit.Symbols), len(want))
	}
	for i, s := range unit.Symbols {
		if s.ID != i {
			t.Fatalf("%s: symbol %d (%s) has ID %d", name, i, s.Name, s.ID)
		}
		if i < len(want) && s != want[i].sym {
			t.Fatalf("%s: symbol %d is %s, not the shared builtin %s", name, i, s.Name, want[i].copy.Name)
		}
	}
}

// TestBuiltinScopeSharedAcrossGoroutines parses SAMATE programs on eight
// goroutines (run it under -race) and asserts that the builtin symbols,
// their IDs and their types are unchanged afterwards.
func TestBuiltinScopeSharedAcrossGoroutines(t *testing.T) {
	before := viewBuiltins()
	var progs []samate.Program
	for _, cwe := range samate.CWEs {
		all := samate.Generate(cwe, samate.TableIIICounts[cwe])
		for i := 0; i < len(all); i += 25 {
			progs = append(progs, all[i])
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	units := make([][]*cast.TranslationUnit, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(progs); i += workers {
				unit, err := Parse(progs[i].ID+".c", progs[i].Source)
				if err != nil {
					errs[w] = err
					return
				}
				units[w] = append(units[w], unit)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for _, us := range units {
		for _, u := range us {
			checkUnitBuiltins(t, u.File.Name(), u, before)
			n++
		}
	}
	if n != len(progs) {
		t.Fatalf("parsed %d of %d programs", n, len(progs))
	}
	after := viewBuiltins()
	if len(after) != len(before) {
		t.Fatalf("builtin count %d, was %d", len(after), len(before))
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("builtin %d changed: %+v, was %+v", i, after[i], before[i])
		}
	}
}

// TestBuiltinRedeclarationMakesFileSymbol: a program that re-prototypes
// a builtin gets a new file-scope symbol for it, leaving the shared
// builtin untouched, and the next unit still binds to the builtin.
func TestBuiltinRedeclarationMakesFileSymbol(t *testing.T) {
	before := viewBuiltins()
	const src = `
char *strcpy(char *dst, char *src);
void f(void) { char b[8]; strcpy(b, "x"); }
`
	unit, err := Parse("redecl.c", src)
	if err != nil {
		t.Fatal(err)
	}
	checkUnitBuiltins(t, "redecl.c", unit, before)
	callee := calleeOf(t, unit, "strcpy")
	if callee.ID < len(before) || callee.Decl == nil || !callee.IsGlobal {
		t.Fatalf("re-prototyped strcpy bound to %+v, want a new file-scope symbol", callee)
	}
	for i, v := range viewBuiltins() {
		if v != before[i] {
			t.Fatalf("builtin %d changed: %+v, was %+v", i, v, before[i])
		}
	}

	plain, err := Parse("plain.c", `void f(void) { char b[8]; strcpy(b, "x"); }`)
	if err != nil {
		t.Fatal(err)
	}
	if c := calleeOf(t, plain, "strcpy"); c.ID >= len(before) || c.Decl != nil {
		t.Fatalf("plain strcpy bound to %+v, want the builtin", c)
	}
}

// calleeOf returns the symbol the first call to name binds to.
func calleeOf(t *testing.T, unit *cast.TranslationUnit, name string) *cast.Symbol {
	t.Helper()
	var sym *cast.Symbol
	cast.Inspect(unit, func(n cast.Node) bool {
		if c, ok := n.(*cast.CallExpr); ok && sym == nil {
			if id, ok := c.Fun.(*cast.Ident); ok && id.Name == name {
				sym = id.Sym
			}
		}
		return sym == nil
	})
	if sym == nil {
		t.Fatalf("no bound call to %s", name)
	}
	return sym
}
