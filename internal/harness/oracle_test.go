package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cinterp"
	"repro/internal/cparse"
	"repro/internal/samate"
)

// oracleVerify recomputes a verdict's four runs the slow way: every run
// parses its text afresh through cinterp.LoadAndRun. The unit names
// match Verify's, so violation positions compare equal.
func oracleVerify(t *testing.T, id, source, transformed, good, bad string, stdin []string) [4]*cinterp.Result {
	t.Helper()
	var out [4]*cinterp.Result
	post := runSource(transformed)
	for i, r := range []struct{ name, src, entry string }{
		{id + " (pre).c", source, good},
		{id + " (pre).c", source, bad},
		{id + " (post).c", post, good},
		{id + " (post).c", post, bad},
	} {
		res, err := cinterp.LoadAndRun(r.name, r.src, r.entry, stdin, cinterp.Limits{})
		if err != nil {
			t.Fatalf("%s %s: %v", r.name, r.entry, err)
		}
		out[i] = res
	}
	return out
}

// checkAgainstOracle runs Verify on one program and asserts its four
// results and three claims equal the fresh-parse oracle's, and that
// Verify parsed exactly twice beyond core.Fix's own parses.
func checkAgainstOracle(t *testing.T, id, source, good, bad string, stdin []string) *Verdict {
	t.Helper()
	before := cparse.Parses()
	if _, err := Transform(id, source, Options{}, nil); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	fixParses := cparse.Parses() - before

	before = cparse.Parses()
	v, err := Verify(id, source, good, bad, Options{Stdin: stdin})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if got := cparse.Parses() - before; got != 2+fixParses {
		t.Fatalf("%s: Verify parsed %d times, want 2 + core.Fix's %d", id, got, fixParses)
	}

	want := oracleVerify(t, id, source, v.TransformedSource, good, bad, stdin)
	for i, got := range []*cinterp.Result{v.PreGood, v.PreBad, v.PostGood, v.PostBad} {
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%s run %d: shared unit gave %+v, fresh parse %+v", id, i, got, want[i])
		}
	}
	vuln := want[1].HasViolations()
	fixed := !want[3].HasViolations()
	preserved := !want[2].HasViolations() && want[2].Stdout == want[0].Stdout
	if v.VulnDetected != vuln || v.Fixed != fixed || v.Preserved != preserved {
		t.Fatalf("%s: verdict vuln=%v fixed=%v preserved=%v, oracle %v/%v/%v",
			id, v.VulnDetected, v.Fixed, v.Preserved, vuln, fixed, preserved)
	}
	return v
}

// TestVerifyMatchesFreshParseOracle: on a stride-10 SAMATE sample, the
// parse-once Verify gives the same four results and the same verdict as
// parsing each run afresh.
func TestVerifyMatchesFreshParseOracle(t *testing.T) {
	n := 0
	for _, cwe := range samate.CWEs {
		progs := samate.Generate(cwe, samate.TableIIICounts[cwe])
		for i := 0; i < len(progs); i += 10 {
			p := progs[i]
			var stdin []string
			if p.CWE == 242 {
				long := strings.Repeat("Q", 120)
				stdin = []string{long, long}
			}
			checkAgainstOracle(t, p.ID, p.Source, p.ID+"_good", p.ID+"_bad", stdin)
			n++
		}
	}
	if n < 450 {
		t.Fatalf("sample too small: %d programs", n)
	}
}

// TestVerifyFreshInterpreterPerRun: good() and bad() both bump a global,
// so a run that saw the previous run's globals would print 2. Each run
// must print 1, before and after the transformation.
func TestVerifyFreshInterpreterPerRun(t *testing.T) {
	const src = `
int counter;
void m_good(void) {
    char buf[32];
    counter++;
    sprintf(buf, "%d", counter);
    printf("%s\n", buf);
}
void m_bad(void) {
    char buf[4];
    counter++;
    strcpy(buf, "far too long for four");
    printf("%d\n", counter);
}
`
	v := checkAgainstOracle(t, "m", src, "m_good", "m_bad", nil)
	if !v.VulnDetected || !v.Fixed || !v.Preserved {
		t.Fatalf("verdict: vuln=%v fixed=%v preserved=%v", v.VulnDetected, v.Fixed, v.Preserved)
	}
	for i, r := range []*cinterp.Result{v.PreGood, v.PreBad, v.PostGood, v.PostBad} {
		if r.Stdout != "1\n" {
			t.Fatalf("run %d printed %q, want %q: globals leaked between runs", i, r.Stdout, "1\n")
		}
	}
}
