package project

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cparse"
	"repro/internal/cpp"
	"repro/internal/fault"
	"repro/internal/overflow"
)

// serialRun is the oracle for Project.Fix and Project.Analyze: the
// serial two-round protocol written out step by step, with nothing
// shared between rounds. Round 1 preprocesses and parses every TU in
// order and collects its external calls; round 2 runs the stand-alone
// per-file pipeline (core.FixPreprocessed or core.AnalyzePreprocessed)
// on every TU that scanned, with the seeds routed to it.
func serialRun(ctx context.Context, p *Project, opts core.Options, lintOnly bool) *Report {
	definedBy := map[string]string{}
	seedsFor := map[string][]overflow.CallSeed{}
	failed := map[string]string{}
	var callers []string
	var seeds [][]overflow.CallSeed
	for _, tu := range p.TUs {
		pp, err := cpp.Preprocess(tu.File, tu.Source, tu.CppOpts)
		if err != nil {
			failed[tu.File] = "preprocess: " + err.Error()
			continue
		}
		snap, err := analysis.ParseCtx(ctx, tu.File, pp.Text, analysis.Config{
			Limits: fault.Limits{Ctx: ctx, Steps: opts.Budget, Contexts: opts.Budget},
		})
		if err != nil {
			failed[tu.File] = "parse: " + err.Error()
			continue
		}
		for _, fn := range snap.Unit().Funcs {
			if _, dup := definedBy[fn.Name]; !dup {
				definedBy[fn.Name] = tu.File
			}
		}
		callers = append(callers, tu.File)
		seeds = append(seeds, snap.ExternalCalls())
	}
	rep := &Report{}
	for i, caller := range callers {
		for _, seed := range seeds[i] {
			target, ok := definedBy[seed.Callee]
			if !ok || target == caller {
				continue
			}
			rep.Edges = append(rep.Edges, CrossEdge{CallerFile: caller, Caller: seed.Caller, CalleeFile: target, Callee: seed.Callee})
			seedsFor[target] = append(seedsFor[target], seed)
		}
	}
	for _, tu := range p.TUs {
		out := FileOutcome{File: tu.File}
		if msg, bad := failed[tu.File]; bad {
			out.Err = msg
			rep.Files = append(rep.Files, out)
			continue
		}
		fopts := opts
		fopts.SelectOffset = -1
		fopts.ExternSeeds = seedsFor[tu.File]
		var pp *cpp.Result
		var err error
		if lintOnly {
			out.Lint, pp, err = core.AnalyzePreprocessed(ctx, tu.File, tu.Source, tu.CppOpts, fopts)
		} else {
			out.Fix, pp, err = core.FixPreprocessed(ctx, tu.File, tu.Source, tu.CppOpts, fopts)
		}
		if err != nil {
			out = FileOutcome{File: tu.File, Err: err.Error()}
		} else {
			out.Includes = pp.Includes
		}
		rep.Files = append(rep.Files, out)
	}
	return rep
}

// multiCaller has two caller files for one callee and a function
// defined twice, so edge order and first-wins linkage are observable.
var multiCaller = map[string]string{
	"a.c": callerC,
	"b.c": calleeC,
	"c.c": `void fill(char *p, int n);
void helper(char *p);
void other(void) {
    char small[4];
    fill(small, 8);
    helper(small);
}
`,
	"d.c": "void helper(char *p) { p[0] = 'd'; }\n",
	"e.c": "void helper(char *p) { p[0] = 'e'; p[5] = 'e'; }\n",
}

// oracleProjects are the differential inputs: the four Table IV
// stand-ins with their make-test drivers, the two-TU example, and
// multiCaller.
func oracleProjects() map[string]func(t *testing.T) *Project {
	out := map[string]func(t *testing.T) *Project{
		"examples/project": func(t *testing.T) *Project {
			return loadDB(t, filepath.Join("..", "..", "examples", "project"))
		},
		"multi-caller": func(*testing.T) *Project { return InMemory(multiCaller, nil, nil) },
	}
	for _, cp := range corpus.Generate(0) {
		files := map[string]string{cp.Name + "_driver.c": cp.TestDriver()}
		for _, f := range cp.Files {
			files[f.Name] = f.Source
		}
		out[cp.Name] = func(*testing.T) *Project { return InMemory(files, nil, nil) }
	}
	return out
}

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestProjectMatchesSerialOracle: the fanned-out, analyze-once project
// run is JSON-byte-identical to the serial two-round protocol for Fix,
// Analyze, and Fix with every lint check.
func TestProjectMatchesSerialOracle(t *testing.T) {
	ctx := context.Background()
	modes := []struct {
		name     string
		opts     core.Options
		lintOnly bool
	}{
		{"fix", core.Options{}, false},
		{"analyze", core.Options{Lint: true, Checks: "all"}, true},
		{"fix+lint", core.Options{Lint: true, Checks: "all"}, false},
		// A tight budget degrades analyses: each report must carry
		// exactly the degradations the stand-alone run saw, none from
		// the export.
		{"fix, budget", core.Options{Budget: 1, KeepGoing: true}, false},
		{"analyze, budget", core.Options{Lint: true, Checks: "all", Budget: 1}, true},
		{"fix+lint, budget", core.Options{Lint: true, Checks: "all", Budget: 1, KeepGoing: true}, false},
	}
	degraded := 0
	defer func() {
		if degraded == 0 {
			t.Error("no report degraded, so the budget modes exercise nothing")
		}
	}()
	for name, load := range oracleProjects() {
		t.Run(name, func(t *testing.T) {
			p := load(t)
			for _, m := range modes {
				want := reportJSON(t, serialRun(ctx, p, m.opts, m.lintOnly))
				run := p.Fix
				if m.lintOnly {
					run = p.Analyze
				}
				rep, err := run(ctx, m.opts)
				if err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				if got := reportJSON(t, rep); !bytes.Equal(got, want) {
					t.Errorf("%s: project run differs from the serial oracle:\n%s", m.name, firstDiff(got, want))
				}
				if len(rep.Edges) == 0 && m.opts.Budget == 0 {
					t.Errorf("%s: no cross-TU edge linked, so no seed is exercised", m.name)
				}
				for _, out := range rep.Files {
					if out.Err != "" {
						t.Errorf("%s: %s failed: %s", m.name, out.File, out.Err)
					}
					if (out.Fix != nil && len(out.Fix.Degraded) > 0) || (out.Lint != nil && len(out.Lint.Degraded) > 0) {
						degraded++
					}
				}
			}
		})
	}
}

// firstDiff renders the first differing line of two JSON renderings.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(g), len(w))
}

// TestProjectFixParsesOncePerTU: a Fix run without lint parses each TU
// once, plus the STR re-parse of every TU whose SLR round changed the
// text (decided independently, by an SLR-only stand-alone fix).
func TestProjectFixParsesOncePerTU(t *testing.T) {
	ctx := context.Background()
	for name, load := range oracleProjects() {
		t.Run(name, func(t *testing.T) {
			p := load(t)
			want := int64(len(p.TUs))
			for _, tu := range p.TUs {
				rep, _, err := core.FixPreprocessed(ctx, tu.File, tu.Source, tu.CppOpts, core.Options{DisableSTR: true, SelectOffset: -1})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Source != tu.Source {
					want++
				}
			}
			before := cparse.Parses()
			if _, err := p.Fix(ctx, core.Options{}); err != nil {
				t.Fatal(err)
			}
			if got := cparse.Parses() - before; got != want {
				t.Fatalf("Fix parsed %d times, want %d (one per TU plus one per SLR-changed TU)", got, want)
			}
		})
	}
}

// TestProjectAnalyzeParsesOncePerTU: an Analyze run parses each TU
// once, and a second time only the TUs the link can route seeds to —
// those defining (first in project order) a function another TU's call
// graph calls without defining it — whose analysis waits for round 2.
func TestProjectAnalyzeParsesOncePerTU(t *testing.T) {
	ctx := context.Background()
	for name, load := range oracleProjects() {
		t.Run(name, func(t *testing.T) {
			p := load(t)
			definer := map[string]string{}
			external := map[string][]string{}
			for _, tu := range p.TUs {
				pp, err := cpp.Preprocess(tu.File, tu.Source, tu.CppOpts)
				if err != nil {
					t.Fatal(err)
				}
				snap, err := analysis.Parse(tu.File, pp.Text)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range snap.CallGraph().Edges() {
					if e.Callee == nil && e.CalleeName != "" {
						external[tu.File] = append(external[tu.File], e.CalleeName)
					}
				}
				for _, fn := range snap.Unit().Funcs {
					if _, dup := definer[fn.Name]; !dup {
						definer[fn.Name] = tu.File
					}
				}
			}
			waits := map[string]bool{}
			for _, names := range external {
				for _, name := range names {
					if file, ok := definer[name]; ok {
						waits[file] = true
					}
				}
			}
			before := cparse.Parses()
			rep, err := p.Analyze(ctx, core.Options{Lint: true})
			if err != nil {
				t.Fatal(err)
			}
			got := cparse.Parses() - before
			if want := int64(len(p.TUs) + len(waits)); got != want {
				t.Fatalf("Analyze parsed %d times, want %d (one per TU plus one per TU that may receive seeds)", got, want)
			}
			for _, e := range rep.Edges {
				if !waits[e.CalleeFile] {
					t.Errorf("%s received seeds but its analysis did not wait for them", e.CalleeFile)
				}
			}
		})
	}
}

// threeTUs is a small project with one unit, slow.c, to stall.
func threeTUs() *Project {
	return InMemory(map[string]string{
		"a.c":    callerC,
		"b.c":    calleeC,
		"slow.c": "void idle(void) { char b[4]; strcpy(b, \"far too long\"); }\n",
	}, nil, nil)
}

// TestProjectTimeoutBoundsScan: Options.Timeout bounds every TU's scan,
// so a stalled unit fails with a deadline error while the others are
// still fixed or analyzed.
func TestProjectTimeoutBoundsScan(t *testing.T) {
	defer analysis.InjectFault("slow.c", analysis.Fault{Delay: time.Minute})()
	for _, lintOnly := range []bool{false, true} {
		p := threeTUs()
		run := p.Fix
		if lintOnly {
			run = p.Analyze
		}
		start := time.Now()
		rep, err := run(context.Background(), core.Options{Timeout: time.Second, Lint: lintOnly})
		if err != nil {
			t.Fatalf("lintOnly=%v: %v", lintOnly, err)
		}
		if took := time.Since(start); took > 20*time.Second {
			t.Fatalf("lintOnly=%v: run took %v; the timeout did not bound the scan", lintOnly, took)
		}
		if len(rep.Files) != 3 {
			t.Fatalf("lintOnly=%v: %d outcomes, want 3", lintOnly, len(rep.Files))
		}
		for _, out := range rep.Files {
			if out.File == "slow.c" {
				if !strings.Contains(out.Err, context.DeadlineExceeded.Error()) {
					t.Errorf("lintOnly=%v: slow.c err = %q, want a deadline error", lintOnly, out.Err)
				}
				continue
			}
			if out.Err != "" || (out.Fix == nil && out.Lint == nil) {
				t.Errorf("lintOnly=%v: %s not processed: %+v", lintOnly, out.File, out)
			}
		}
	}
}

// TestProjectCancelledCtx: a cancelled context returns its error with
// one failed outcome per TU.
func TestProjectCancelledCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, lintOnly := range []bool{false, true} {
		p := threeTUs()
		run := p.Fix
		if lintOnly {
			run = p.Analyze
		}
		rep, err := run(ctx, core.Options{Lint: lintOnly})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("lintOnly=%v: err = %v, want context.Canceled", lintOnly, err)
		}
		if len(rep.Files) != len(p.TUs) {
			t.Fatalf("lintOnly=%v: %d outcomes, want %d", lintOnly, len(rep.Files), len(p.TUs))
		}
		for i, out := range rep.Files {
			if out.File != p.TUs[i].File || !strings.Contains(out.Err, context.Canceled.Error()) {
				t.Errorf("lintOnly=%v: outcome %d = %+v, want %s cancelled", lintOnly, i, out, p.TUs[i].File)
			}
		}
	}
}

// TestProjectFailedExportKeepsOutcome: when a TU's job finishes but the
// export of its external calls does not (here it stalls past
// Options.Timeout, or panics), the TU keeps its fix or analysis with a
// degradation note, and it only sends no seeds.
func TestProjectFailedExportKeepsOutcome(t *testing.T) {
	faults := map[string]analysis.Fault{
		"stall": {Export: true, Delay: time.Minute},
		"panic": {Export: true, Panic: true},
	}
	for name, f := range faults {
		for _, lintOnly := range []bool{false, true} {
			remove := analysis.InjectFault("a.c", f)
			p := threeTUs()
			run := p.Fix
			if lintOnly {
				run = p.Analyze
			}
			rep, err := run(context.Background(), core.Options{Timeout: time.Second, Lint: true})
			remove()
			if err != nil {
				t.Fatalf("%s, lintOnly=%v: %v", name, lintOnly, err)
			}
			if len(rep.Edges) != 0 {
				t.Errorf("%s, lintOnly=%v: edges %+v linked from an unexported TU", name, lintOnly, rep.Edges)
			}
			for _, out := range rep.Files {
				if out.Err != "" || (out.Fix == nil && out.Lint == nil) {
					t.Errorf("%s, lintOnly=%v: %s lost its outcome: %+v", name, lintOnly, out.File, out)
					continue
				}
				var deg []string
				if out.Fix != nil {
					deg = out.Fix.Degraded
				} else {
					deg = out.Lint.Degraded
				}
				noted := strings.Contains(strings.Join(deg, "\n"), "not exported")
				if noted != (out.File == "a.c") {
					t.Errorf("%s, lintOnly=%v: %s degraded = %q", name, lintOnly, out.File, deg)
				}
			}
		}
	}
}
