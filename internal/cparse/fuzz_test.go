package cparse

import (
	"strings"
	"testing"

	"repro/internal/clex"
	"repro/internal/clex/clextest"
	"repro/internal/ctoken"
)

// FuzzParse asserts the parser's crash-freedom contract: arbitrary input
// produces either a unit or an error, never a panic (the internal bail
// panic must not escape).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"int x;",
		"void f(void) { char buf[10]; strcpy(buf, \"x\"); }",
		"struct s { int a; } v; int f(struct s *p) { return p->a; }",
		"typedef int i32; i32 g(i32 a, ...) { return a; }",
		"void f() { for(;;) if (1) while(0) do ; while(1); }",
		"int a[3] = {1,2,3}; char *s = \"\\x41\\n\";",
		"void f(){ goto l; l: switch(1){case 1: break; default:;} }",
		"int (*fp)(char*, ...);",
		"void broken( {",
		"8'\x00\"/*",
		"sizeof sizeof (int)(((",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Bound pathological inputs; the parser is recursive descent.
		if len(src) > 4096 || strings.Count(src, "(") > 200 {
			t.Skip()
		}
		unit, err := Parse("fuzz.c", src)
		if err == nil && unit == nil {
			t.Fatal("nil unit without error")
		}
	})
}

// FuzzLexer asserts that tokenization always terminates, never panics,
// produces tokens whose extents tile within the source, and that the
// parser-facing stream is the full stream minus comments and
// directives, error included.
func FuzzLexer(f *testing.F) {
	f.Add("int main(void) { return 0; }")
	f.Add("\"unterminated")
	f.Add("/* unterminated")
	f.Add("'\\")
	f.Add("0x 1e+ 3..7 L'x' L\"y\"")
	f.Add("<<= >>= ... -> a|=b")
	f.Add("# define X\n/* c */ x")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 8192 {
			t.Skip()
		}
		if d := clextest.ParserStreamDiff(src); d != "" {
			t.Fatal(d)
		}
		toks, _ := clex.Tokenize(src)
		var prev ctoken.Pos
		for _, tok := range toks {
			if tok.Kind == ctoken.KindEOF {
				continue
			}
			e := tok.Extent
			if !e.IsValid() || int(e.End) > len(src) {
				t.Fatalf("bad extent %+v for source of %d bytes", e, len(src))
			}
			if e.Pos < prev {
				t.Fatalf("tokens out of order: %d after %d", e.Pos, prev)
			}
			prev = e.Pos
			if src[e.Pos:e.End] != tok.Text {
				t.Fatalf("text/extent mismatch: %q vs %q", src[e.Pos:e.End], tok.Text)
			}
		}
	})
}
