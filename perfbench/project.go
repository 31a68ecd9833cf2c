package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/cinterp"
	"repro/internal/clex"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cparse"
	"repro/internal/cpp"
	"repro/internal/project"
	"repro/internal/stralloc"
	"repro/internal/typecheck"
	"repro/pkg/cfix"
)

// benchProject is one Table IV stand-in as the workload feeds it to
// project mode: its generated files plus the make-test driver as one
// more translation unit, so the link round has cross-file edges.
type benchProject struct {
	proj  corpus.Project
	files map[string]string
	kloc  float64
}

func driverName(p corpus.Project) string { return p.Name + "_driver.c" }

func projectLines(p corpus.Project) int {
	lines := 0
	for _, f := range p.Files {
		lines += f.LOC()
	}
	return lines
}

// fillerFor grows a project's files toward its Table IV line count; grown
// is the same project with one filler function per file.
func fillerFor(p, grown corpus.Project) int {
	missing := p.Calibration.KLOC*1000 - float64(projectLines(p))
	perFiller := float64(projectLines(grown) - projectLines(p))
	if missing <= 0 || perFiller <= 0 {
		return 0
	}
	return int(math.Round(missing / perFiller))
}

// buildProjects generates the four projects at their Table IV size, in
// seeded order. scale shrinks the filler (1 = the Table IV KLOC).
func buildProjects(seed int64, scale float64) ([]benchProject, string, error) {
	base, one := corpus.Generate(0), corpus.Generate(1)
	var out []benchProject
	for i, p := range base {
		filler := int(math.Round(float64(fillerFor(p, one[i])) * scale))
		grown, ok := corpus.ProjectByName(p.Name, filler)
		if !ok {
			return nil, "", fmt.Errorf("corpus has no project %s", p.Name)
		}
		bp := benchProject{proj: grown, files: map[string]string{}}
		lines := 0
		for _, f := range grown.Files {
			bp.files[f.Name] = f.Source
			lines += f.LOC()
		}
		driver := grown.TestDriver()
		bp.files[driverName(grown)] = driver
		lines += strings.Count(driver, "\n") + 1
		bp.kloc = float64(lines) / 1000
		out = append(out, bp)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	h := sha256.New()
	for _, bp := range out {
		names := make([]string, 0, len(bp.files))
		for n := range bp.files {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(h, "%s\x00%s\x00", n, bp.files[n])
		}
	}
	return out, fmt.Sprintf("%x", h.Sum(nil)[:8]), nil
}

// projectOutcome is what the gates need from one project report.
type projectOutcome struct {
	slrApplied, slrSites int // SLR sites applied / candidates
	strApplied, strVars  int // STR pointer variables replaced / identified
	edges                int
	fileErrs             []string
	digest               string            // of every fixed file
	fixed                map[string]string // kept from the first pass for the make-test gate
}

func outcomeOf(rep *cfix.ProjectReport, keep bool) projectOutcome {
	o := projectOutcome{edges: len(rep.Edges)}
	h := sha256.New()
	if keep {
		o.fixed = map[string]string{}
	}
	for _, f := range rep.Files {
		if f.Err != "" {
			o.fileErrs = append(o.fileErrs, f.File+": "+f.Err)
			continue
		}
		fmt.Fprintf(h, "%s\x00%s\x00", f.File, f.Fix.Source)
		if keep {
			o.fixed[f.File] = f.Fix.Source
		}
		if f.Fix.SLR != nil {
			o.slrApplied += f.Fix.SLR.AppliedCount()
			o.slrSites += f.Fix.SLR.Candidates()
		}
		if f.Fix.STR != nil {
			for _, v := range f.Fix.STR.Vars {
				if v.IsPointer {
					o.strVars++
					if v.Applied {
						o.strApplied++
					}
				}
			}
		}
	}
	o.digest = fmt.Sprintf("%x", h.Sum(nil)[:8])
	return o
}

// projectOps makes one pass: project mode on each project in seeded order.
func projectOps(projs []benchProject, outs []projectOutcome, errs []error, keep bool) []op {
	ops := make([]op, len(projs))
	for i, bp := range projs {
		i, bp := i, bp
		var rep *cfix.ProjectReport
		ops[i] = op{
			kloc: bp.kloc,
			run: func() error {
				var err error
				rep, err = cfix.FixProjectInMemory(context.Background(), bp.files, nil, cfix.Options{SelectAll: true})
				errs[i] = err
				return err
			},
			after: func() {
				if rep != nil {
					outs[i] = outcomeOf(rep, keep)
					rep = nil
				}
			},
		}
	}
	return ops
}

// checkProjects applies the per-project gates: SLR and STR counts equal
// the generator's known answers, no file failed, and every pass produced
// the same fixed files as the first.
func checkProjects(res *result, projs []benchProject, outs []projectOutcome, errs []error, first []projectOutcome) {
	res.attempted += len(projs)
	for i, bp := range projs {
		o, cal := outs[i], bp.proj.Calibration
		switch {
		case errs[i] != nil:
			res.fail("%s: %v", bp.proj.Name, errs[i])
		case len(o.fileErrs) > 0:
			res.fail("%s: %d file errors, first: %s", bp.proj.Name, len(o.fileErrs), o.fileErrs[0])
		case o.slrApplied != cal.SLRTransformed:
			res.fail("%s: SLR applied %d, generator says %d", bp.proj.Name, o.slrApplied, cal.SLRTransformed)
		case o.strApplied != cal.STRReplaced:
			res.fail("%s: STR replaced %d pointers, generator says %d", bp.proj.Name, o.strApplied, cal.STRReplaced)
		case first != nil && o.digest != first[i].digest:
			res.fail("%s: fixed files differ from the first pass", bp.proj.Name)
		}
	}
}

// makeTest is the paper's "make test" oracle run under the checked
// interpreter: the original files plus the driver, and the fixed files
// plus the fixed driver, each as one translation unit; both runs must be
// free of violations and print the same output.
func makeTest(bp benchProject, fixed map[string]string) error {
	join := func(files map[string]string) string {
		var sb strings.Builder
		for _, f := range bp.proj.Files {
			sb.WriteString(files[f.Name])
			sb.WriteString("\n")
		}
		sb.WriteString(files[driverName(bp.proj)])
		return sb.String()
	}
	runMain := func(label, src string) (*cinterp.Result, error) {
		unit, err := cparse.Parse(label, src)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", label, err)
		}
		typecheck.Check(unit)
		in, err := cinterp.New(unit, cinterp.Limits{MaxSteps: 100_000_000})
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", label, err)
		}
		return in.Run("main")
	}
	pre, err := runMain(bp.proj.Name+"_pre.c", join(bp.files))
	if err != nil {
		return err
	}
	post := join(fixed)
	if strings.Contains(post, "stralloc") {
		post = stralloc.Header() + "\n" + post
	}
	got, err := runMain(bp.proj.Name+"_post.c", post)
	if err != nil {
		return err
	}
	switch {
	case pre.HasViolations() || got.HasViolations():
		return fmt.Errorf("make test raised violations (before %d, after %d)", len(pre.Violations), len(got.Violations))
	case pre.Stdout != got.Stdout:
		return fmt.Errorf("make test output changed: %q became %q", pre.Stdout, got.Stdout)
	}
	return nil
}

// checkMakeTests runs makeTest on every project whose fixed files outs
// kept.
func checkMakeTests(res *result, projs []benchProject, outs []projectOutcome) {
	for i, bp := range projs {
		if outs[i].fixed == nil {
			continue
		}
		if err := makeTest(bp, outs[i].fixed); err != nil {
			res.fail("%s: %v", bp.proj.Name, err)
		}
	}
}

func runProject(cfg config) (*result, error) {
	su, err := newSetup(func() ([]benchProject, string, error) { return buildProjects(cfg.seed, 1) })
	if err != nil {
		return nil, err
	}
	projs := su.in
	res := newResult()
	res.digest = su.digest
	if cfg.trace {
		return res, traceProject(cfg, res, projs)
	}

	var (
		all   []sample
		cpu   time.Duration
		first []projectOutcome
	)
	passes, err := measure(cfg.seconds, func() error {
		outs := make([]projectOutcome, len(projs))
		errs := make([]error, len(projs))
		ops := projectOps(projs, outs, errs, first == nil)
		c0 := cpuTime()
		samples := closedLoop([][]op{ops})
		cpu += cpuTime() - c0
		all = append(all, samples[0]...)
		checkProjects(res, projs, outs, errs, first)
		if first == nil {
			first = outs
		}
		return nil
	}, su.again)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	checkMakeTests(res, projs, first)
	net := netOfSteal(all, len(projs)) // a pass is one window
	w := byWindow(net, len(projs))
	p50, tail := projectLatency(net, len(projs))
	note := fmt.Sprintf("median of %d passes", passes)
	res.set("setup_s", su.seconds(), len(su.times), "median of builds spread over the run")
	res.set("ops_per_s", w.rate, w.n, note)
	res.set("kloc_per_s", w.klocRate, w.n, note)
	res.set("op_p50_ms", p50, len(projs), "median over projects of each project's median; "+note)
	res.set("op_tail_ms", tail, len(projs), "slowest project's median (max: fewer than 100 ops); "+note)
	res.set("cpu_ms_per_op", msPer(cpu, float64(len(all))), len(all), "process CPU, all threads")
	res.set("peak_rss_mb", rss, 1, "VmHWM after the measured passes")
	res.lines = append(res.lines, stealLine(all))
	return res, nil
}

// projectLatency reduces per-project latencies, pass after pass, to the
// median and the maximum over projects of each project's median over the
// passes. Four projects of different sizes are too few, and too unlike,
// to pool into one distribution.
func projectLatency(all []sample, projects int) (p50, tail float64) {
	perProject := make([]float64, projects)
	for i := range perProject {
		var ms []float64
		for j := i; j < len(all); j += projects {
			ms = append(ms, all[j].latency())
		}
		perProject[i] = median(ms)
		tail = max(tail, perProject[i])
	}
	return median(perProject), tail
}

// traceProject runs one untraced pass, which the gates judge and the exact
// counts come from, then one traced pass that times the project call and, per translation unit, the
// preprocessor, each analysis stage, and a stand-alone
// core.FixPreprocessed.
func traceProject(cfg config, res *result, projs []benchProject) error {
	n := float64(len(projs))
	outs := make([]projectOutcome, len(projs))
	errs := make([]error, len(projs))
	rt0, parses0 := readRuntime(), cparse.Parses()
	closedLoop([][]op{projectOps(projs, outs, errs, true)})
	rt1, parses1 := readRuntime(), cparse.Parses()
	checkProjects(res, projs, outs, errs, nil)
	checkMakeTests(res, projs, outs)
	var edges, slrA, slrS, strA, strS int
	for _, o := range outs {
		edges += o.edges
		slrA, slrS, strA, strS = slrA+o.slrApplied, slrS+o.slrSites, strA+o.strApplied, strS+o.strVars
	}

	be, err := backend.Get("")
	if err != nil {
		return err
	}
	t := newTracer()
	var tokens int
	var kloc, ppKLOC float64
	var untraced, traced time.Duration
	for i, bp := range projs {
		// The project call untraced right before its traced run, so the
		// pair sees the machine in the same state and their difference is
		// the tracing overhead.
		start := time.Now()
		if _, err := cfix.FixProjectInMemory(context.Background(), bp.files, nil, cfix.Options{SelectAll: true}); err != nil {
			return fmt.Errorf("%s: %w", bp.proj.Name, err)
		}
		untraced += time.Since(start)
		t.op = i
		opSpan := t.begin("op")
		t.call("project.FixProjectInMemory", func() {
			_, err = cfix.FixProjectInMemory(context.Background(), bp.files, nil, cfix.Options{SelectAll: true})
		})
		t.end(opSpan)
		if err != nil {
			return fmt.Errorf("%s: %w", bp.proj.Name, err)
		}
		traced += t.spans[opSpan].end - t.spans[opSpan].start
		kloc += bp.kloc

		for _, tu := range project.InMemory(bp.files, nil, nil).TUs {
			var pp *cpp.Result
			t.call("cpp.Preprocess", func() { pp, err = cpp.Preprocess(tu.File, tu.Source, tu.CppOpts) })
			if err != nil {
				return fmt.Errorf("%s: %w", tu.File, err)
			}
			ppKLOC += float64(strings.Count(tu.Source, "\n")+1) / 1000
			t.call("clex.TokenizeForParser", func() {
				toks, _ := clex.TokenizeForParser(pp.Text)
				tokens += len(toks)
			})
			if err := traceStages(t, tu.File, pp.Text, be); err != nil {
				return fmt.Errorf("%s: %w", tu.File, err)
			}
			t.call("core.FixPreprocessed", func() {
				_, _, err = core.FixPreprocessed(context.Background(), tu.File, tu.Source, tu.CppOpts, core.Options{SelectOffset: -1})
			})
			if err != nil {
				return fmt.Errorf("%s: %w", tu.File, err)
			}
		}
	}

	tot := t.totals()
	fixMs := tot["project.FixProjectInMemory"].dur
	res.set("cparse.parses_per_op", float64(parses1-parses0)/n, len(projs), "project mode, untraced")
	res.set("cparse.ms_per_op", msPer(tot["stage.cparse"].dur, n), tot["stage.cparse"].count, "stage replay")
	res.set("cparse.alloc_kb_per_op", float64(tot["stage.cparse"].alloc)/1024/n, tot["stage.cparse"].count, "stage replay")
	res.set("clex.ms_per_op", msPer(tot["clex.TokenizeForParser"].dur, n), tot["clex.TokenizeForParser"].count, "")
	res.set("clex.tokens_per_op", float64(tokens)/n, tot["clex.TokenizeForParser"].count, "")
	res.set("typecheck.ms_per_op", msPer(tot["stage.typecheck"].dur, n), tot["stage.typecheck"].count, "")
	res.set("cpp.ms_per_kloc", msPer(tot["cpp.Preprocess"].dur, ppKLOC), tot["cpp.Preprocess"].count, "")
	res.set("cpp.alloc_kb_per_kloc", float64(tot["cpp.Preprocess"].alloc)/1024/ppKLOC, tot["cpp.Preprocess"].count, "")
	setStageMetrics(res, tot, kloc)
	res.set("core.fix_ms_per_op", msPer(tot["core.FixPreprocessed"].dur, n), tot["core.FixPreprocessed"].count, "stand-alone per-TU fixes")
	res.set("project.fix_ms", msPer(fixMs, n), len(projs), "per project")
	res.set("project.overhead_share", 1-float64(tot["core.FixPreprocessed"].dur)/float64(fixMs), len(projs), "")
	res.set("project.cross_edges", float64(edges), len(projs), "")
	res.set("slr.applied_ratio", ratio(slrA, slrS), slrS, fmt.Sprintf("%d/%d", slrA, slrS))
	res.set("str.applied_ratio", ratio(strA, strS), strS, fmt.Sprintf("%d/%d pointers", strA, strS))
	res.set("harness.residual_ms_per_op", msPer(t.residual("op"), n), len(projs), "traced op minus its layer spans")
	setRuntimeMetrics(res, rt0, rt1, n)
	res.set("trace.overhead_ms_per_op", msPer(traced-untraced, n), len(projs), "traced op minus the untraced op run just before it")

	line, err := writeAndCheckTrace(cfg, t, 10)
	if err != nil {
		return err
	}
	res.lines = append(res.lines, line)
	return nil
}
