package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

const twinProgram = `
void prog_good(void) {
    char buf[32];
    strcpy(buf, "short");
    printf("%s\n", buf);
}

void prog_bad(void) {
    char buf[8];
    strcpy(buf, "far too long for the buffer");
    printf("%s\n", buf);
}
`

func TestVerifyHappyPath(t *testing.T) {
	v, err := Verify("prog", twinProgram, "prog_good", "prog_bad", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !v.VulnDetected {
		t.Fatal("bad function must overflow pre-transform")
	}
	if !v.Fixed {
		t.Fatalf("bad function must be clean post-transform: %v", v.PostBad.Violations)
	}
	if !v.Preserved {
		t.Fatalf("good output must be preserved: pre=%q post=%q",
			v.PreGood.Stdout, v.PostGood.Stdout)
	}
	if v.SLRSites != 2 || v.SLRApplied != 2 {
		t.Fatalf("SLR counts: %d/%d", v.SLRApplied, v.SLRSites)
	}
}

func TestVerifySkipSLR(t *testing.T) {
	v, err := Verify("prog", twinProgram, "prog_good", "prog_bad", Options{SkipSLR: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.SLRSites != 0 {
		t.Fatal("SLR must not run when skipped")
	}
	// STR alone also fixes this (strcpy maps to stralloc_copybuf).
	if !v.Fixed {
		t.Fatalf("STR should fix the strcpy overflow: %v", v.PostBad.Violations)
	}
}

func TestVerifySkipBoth(t *testing.T) {
	v, err := Verify("prog", twinProgram, "prog_good", "prog_bad",
		Options{SkipSLR: true, SkipSTR: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.Fixed {
		t.Fatal("with no transformations the bad function must still overflow")
	}
	if v.TransformedSource != twinProgram {
		t.Fatal("source must be untouched")
	}
}

func TestTransformOnly(t *testing.T) {
	out, err := Transform("prog", twinProgram, Options{SkipSTR: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "g_strlcpy") {
		t.Fatalf("SLR output missing:\n%s", out)
	}
}

func TestVerifyStdinReplayed(t *testing.T) {
	src := `
void g_good(void) {
    char buf[64];
    fgets(buf, sizeof(buf), stdin);
    printf("%s", buf);
}
void g_bad(void) {
    char buf[8];
    gets(buf);
    printf("%s\n", buf);
}
`
	v, err := Verify("g", src, "g_good", "g_bad",
		Options{Stdin: []string{"hello input", "a very long attacking line"}})
	if err != nil {
		t.Fatal(err)
	}
	if !v.VulnDetected || !v.Fixed || !v.Preserved {
		t.Fatalf("verdict: %+v (postBad=%v)", v, v.PostBad.Violations)
	}
	if !strings.Contains(v.PreGood.Stdout, "hello input") {
		t.Fatalf("stdin not consumed: %q", v.PreGood.Stdout)
	}
}

func TestVerifyParseErrorSurfaces(t *testing.T) {
	_, err := Verify("bad", "int main( {", "a", "b", Options{})
	if err == nil {
		t.Fatal("parse errors must surface")
	}
}

func TestVerifyMissingEntry(t *testing.T) {
	_, err := Verify("prog", twinProgram, "no_such_fn", "prog_bad", Options{})
	if err == nil {
		t.Fatal("missing entry must surface")
	}
}

// TestVerifyTracesRuns: with a tracer, Verify records one parse and one
// typecheck span per text it loads and one interp span per run, beside
// core.Fix's own spans.
func TestVerifyTracesRuns(t *testing.T) {
	if !obs.Enabled() {
		t.Skip("tracing compiled out (cfix_notrace)")
	}
	tr := obs.NewTracer()
	if _, err := Verify("prog", twinProgram, "prog_good", "prog_bad", Options{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, s := range tr.Spans() {
		if s.File != "prog.c" {
			got[s.Name+" "+s.File]++
		}
	}
	want := map[string]int{
		"parse prog (pre)":        1,
		"typecheck prog (pre)":    1,
		"interp prog (pre,good)":  1,
		"interp prog (pre,bad)":   1,
		"parse prog (post)":       1,
		"typecheck prog (post)":   1,
		"interp prog (post,good)": 1,
		"interp prog (post,bad)":  1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("harness spans %v, want %v", got, want)
	}
}
