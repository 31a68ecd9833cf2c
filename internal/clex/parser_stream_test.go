package clex_test

import (
	"testing"

	"repro/internal/clex"
	"repro/internal/clex/clextest"
	"repro/internal/ctoken"
	"repro/internal/samate"
	"repro/internal/stralloc"
)

// TestTokenizeForParserDifferential: on every SAMATE program and the
// stralloc library source, the single-pass parser stream equals
// Tokenize's stream with comments and directives filtered out. The
// preprocessor's torture corpus and the fuzz seeds run the same oracle
// in their own packages.
func TestTokenizeForParserDifferential(t *testing.T) {
	n := 0
	for _, cwe := range samate.CWEs {
		for _, p := range samate.Generate(cwe, samate.TableIIICounts[cwe]) {
			if d := clextest.ParserStreamDiff(p.Source); d != "" {
				t.Fatalf("%s: %s", p.ID, d)
			}
			n++
		}
	}
	if n != 4505 {
		t.Fatalf("checked %d SAMATE programs, want 4505", n)
	}
	if d := clextest.ParserStreamDiff(stralloc.FullSource()); d != "" {
		t.Fatalf("stralloc: %s", d)
	}
	for _, src := range []string{
		"#include <x.h>\nint a; // c\n/* b */ int b;",
		"int x; /* unterminated",
		"#if 1 \\\n  continued\nint y;",
		"int $;",
	} {
		if d := clextest.ParserStreamDiff(src); d != "" {
			t.Fatalf("%q: %s", src, d)
		}
	}
}

var benchTokens []ctoken.Token

// BenchmarkTokenizeForParser lexes the stralloc library source, the
// largest text the verification harness parses.
func BenchmarkTokenizeForParser(b *testing.B) {
	src := stralloc.FullSource()
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		toks, err := clex.TokenizeForParser(src)
		if err != nil {
			b.Fatal(err)
		}
		benchTokens = toks
	}
}
