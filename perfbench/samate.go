package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/cast"
	"repro/internal/cinterp"
	"repro/internal/clex"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/harness"
	"repro/internal/samate"
	"repro/internal/slr"
	"repro/internal/str"
	"repro/internal/stralloc"
	"repro/internal/typecheck"
)

// samateCorpus is every generated SAMATE program, in Table III order.
func samateCorpus() []samate.Program {
	byCWE := samate.GenerateAll()
	var all []samate.Program
	for _, cwe := range samate.CWEs {
		all = append(all, byCWE[cwe]...)
	}
	return all
}

// buildSamate generates the corpus and shuffles it by seed, keeping the
// first limit programs when limit > 0.
func buildSamate(seed int64, limit int) ([]samate.Program, string, error) {
	all := samateCorpus()
	if len(all) != samate.TotalPrograms() {
		return nil, "", fmt.Errorf("corpus has %d programs, want %d", len(all), samate.TotalPrograms())
	}
	perm := rand.New(rand.NewSource(seed)).Perm(len(all))
	if limit > 0 && limit < len(perm) {
		perm = perm[:limit]
	}
	progs := make([]samate.Program, len(perm))
	h := sha256.New()
	for i, j := range perm {
		p := all[j]
		progs[i] = p
		fmt.Fprintf(h, "%s\x00%s\x00", p.ID, p.Source)
	}
	return progs, fmt.Sprintf("%x", h.Sum(nil)[:8]), nil
}

// stdinFor feeds the gets/fgets programs of CWE-242 lines long enough to
// overflow their buffers, as the Table III experiment does.
func stdinFor(p samate.Program) []string {
	if p.CWE != 242 {
		return nil
	}
	long := strings.Repeat("Q", 120)
	return []string{long, long}
}

// verdict is the part of a harness verdict the gates and counters need.
type verdict struct {
	ok                   bool // VulnDetected && Fixed && Preserved
	slrSites, slrApplied int
	strVars, strApplied  int
}

func gateVerdict(v *harness.Verdict) verdict {
	return verdict{
		ok:       v.VulnDetected && v.Fixed && v.Preserved,
		slrSites: v.SLRSites, slrApplied: v.SLRApplied,
		strVars: v.STRVars, strApplied: v.STRApplied,
	}
}

// samateOps makes one pass of operations: harness.Verify on every program
// in seeded order, with its verdict recorded for the gates.
func samateOps(progs []samate.Program, verdicts []verdict, errs []error) []op {
	ops := make([]op, len(progs))
	for i, p := range progs {
		i, p := i, p
		var v *harness.Verdict
		ops[i] = op{
			kloc: float64(p.LOC()) / 1000,
			run: func() error {
				var err error
				v, err = harness.Verify(p.ID, p.Source, p.ID+"_good", p.ID+"_bad", harness.Options{Stdin: stdinFor(p)})
				errs[i] = err
				return err
			},
			after: func() {
				if v != nil {
					verdicts[i] = gateVerdict(v)
					v = nil
				}
			},
		}
	}
	return ops
}

// checkVerdicts applies the Table III gate: every program's bad function
// overflowed before and not after, and its good function is preserved.
func checkVerdicts(res *result, progs []samate.Program, verdicts []verdict, errs []error) {
	res.attempted += len(verdicts)
	for i, v := range verdicts {
		switch {
		case errs[i] != nil:
			res.fail("%s: %v", progs[i].ID, errs[i])
		case !v.ok:
			res.fail("%s: verdict is not VulnDetected, Fixed and Preserved", progs[i].ID)
		}
	}
}

func runSamate(cfg config) (*result, error) {
	su, err := newSetup(func() ([]samate.Program, string, error) { return buildSamate(cfg.seed, 0) })
	if err != nil {
		return nil, err
	}
	progs := su.in
	res := newResult()
	res.digest = su.digest
	verdicts := make([]verdict, len(progs))
	errs := make([]error, len(progs))

	if cfg.trace {
		return res, traceSamate(cfg, res, progs, verdicts, errs)
	}

	var all []sample
	var cpu time.Duration
	passes, err := measure(cfg.seconds, func() error {
		ops := samateOps(progs, verdicts, errs)
		c0 := cpuTime()
		samples := closedLoop([][]op{ops})
		cpu += cpuTime() - c0
		all = append(all, samples[0]...)
		checkVerdicts(res, progs, verdicts, errs)
		return nil
	}, su.again)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	w := byWindow(netOfSteal(all, window), window)
	note := fmt.Sprintf("median of %d windows, %d passes", w.windows, passes)
	res.set("setup_s", su.seconds(), len(su.times), "median of builds spread over the run")
	res.set("ops_per_s", w.rate, w.n, note)
	res.set("kloc_per_s", w.klocRate, w.n, note)
	res.set("op_p50_ms", w.p50, w.n, note)
	res.set("op_tail_ms", w.tail, w.n, fmt.Sprintf("%s in each window, >= %d beyond; %s", w.label, w.beyond, note))
	res.set("cpu_ms_per_op", msPer(cpu, float64(len(all))), len(all), "process CPU, all threads")
	res.set("peak_rss_mb", rss, 1, "VmHWM after the measured passes")
	res.lines = append(res.lines, stealLine(all))
	return res, nil
}

// traceSamate runs one untraced pass (the reference for parse counts,
// runtime figures and the gates), then replays harness.Verify's calls one
// module at a time under spans.
func traceSamate(cfg config, res *result, progs []samate.Program, verdicts []verdict, errs []error) error {
	n := float64(len(progs))
	rt0, parses0 := readRuntime(), cparse.Parses()
	closedLoop([][]op{samateOps(progs, verdicts, errs)})
	rt1, parses1 := readRuntime(), cparse.Parses()
	checkVerdicts(res, progs, verdicts, errs)
	var slrSites, slrApplied, strVars, strApplied int
	for _, v := range verdicts {
		slrSites, slrApplied = slrSites+v.slrSites, slrApplied+v.slrApplied
		strVars, strApplied = strVars+v.strVars, strApplied+v.strApplied
	}

	be, err := backend.Get("")
	if err != nil {
		return err
	}
	t := newTracer()
	var tokens int
	var kloc float64
	var untraced, traced time.Duration
	for i, p := range progs {
		// harness.Verify untraced right before its traced replay, so the
		// pair sees the machine in the same state and their difference is
		// the tracing overhead.
		start := time.Now()
		if _, err := harness.Verify(p.ID, p.Source, p.ID+"_good", p.ID+"_bad", harness.Options{Stdin: stdinFor(p)}); err != nil {
			return fmt.Errorf("%s: %w", p.ID, err)
		}
		untraced += time.Since(start)
		t.op = i
		opSpan := len(t.spans)
		texts, err := traceVerify(t, p)
		if err != nil {
			return fmt.Errorf("%s: traced replay: %w", p.ID, err)
		}
		traced += t.spans[opSpan].end - t.spans[opSpan].start
		for _, text := range texts {
			t.call("clex.TokenizeForParser", func() {
				toks, _ := clex.TokenizeForParser(text)
				tokens += len(toks)
			})
		}
		if err := traceStages(t, p.ID+".c", p.Source, be); err != nil {
			return fmt.Errorf("%s: traced stages: %w", p.ID, err)
		}
		kloc += float64(p.LOC()) / 1000
	}

	tot := t.totals()
	res.set("cparse.parses_per_op", float64(parses1-parses0)/n, len(progs), "harness.Verify, untraced")
	res.set("cparse.ms_per_op", msPer(tot["cparse.Parse"].dur, n), tot["cparse.Parse"].count, "")
	res.set("cparse.alloc_kb_per_op", float64(tot["cparse.Parse"].alloc)/1024/n, tot["cparse.Parse"].count, "")
	res.set("clex.ms_per_op", msPer(tot["clex.TokenizeForParser"].dur, n), tot["clex.TokenizeForParser"].count, "")
	res.set("clex.tokens_per_op", float64(tokens)/n, tot["clex.TokenizeForParser"].count, "")
	res.set("typecheck.ms_per_op", msPer(tot["typecheck.Check"].dur, n), tot["typecheck.Check"].count, "")
	res.set("cinterp.ms_per_op", msPer(tot["cinterp.Run"].dur, n), tot["cinterp.Run"].count, "")
	res.set("cinterp.alloc_kb_per_op", float64(tot["cinterp.Run"].alloc)/1024/n, tot["cinterp.Run"].count, "")
	res.set("core.fix_ms_per_op", msPer(tot["core.Fix"].dur, n), tot["core.Fix"].count, "")
	res.set("harness.residual_ms_per_op", msPer(t.residual("op"), n), len(progs), "traced op minus its layer spans")
	setStageMetrics(res, tot, kloc)
	res.set("slr.applied_ratio", ratio(slrApplied, slrSites), slrSites, fmt.Sprintf("%d/%d", slrApplied, slrSites))
	res.set("str.applied_ratio", ratio(strApplied, strVars), strVars, fmt.Sprintf("%d/%d", strApplied, strVars))
	setRuntimeMetrics(res, rt0, rt1, n)
	res.set("trace.overhead_ms_per_op", msPer(traced-untraced, n), len(progs), "traced op minus the untraced op run just before it")

	line, err := writeAndCheckTrace(cfg, t, 10)
	if err != nil {
		return err
	}
	res.lines = append(res.lines, line)
	return nil
}

// traceVerify is harness.Verify replayed outside-in: the same calls in the
// same order, each under a span. It returns the texts it parsed. The gates
// judge the untraced harness.Verify verdicts, not this replay.
func traceVerify(t *tracer, p samate.Program) ([]string, error) {
	opSpan := t.begin("op")
	defer t.end(opSpan)
	stdin := stdinFor(p)
	good, bad := p.ID+"_good", p.ID+"_bad"
	if err := traceRun(t, p.ID+" (pre,good)", p.Source, good, stdin); err != nil {
		return nil, err
	}
	if err := traceRun(t, p.ID+" (pre,bad)", p.Source, bad, stdin); err != nil {
		return nil, err
	}
	var (
		rep *core.Report
		err error
	)
	t.call("core.Fix", func() {
		rep, err = core.Fix(context.Background(), p.ID+".c", p.Source, core.Options{SelectOffset: -1})
	})
	if err != nil {
		return nil, err
	}
	runSource := rep.Source
	if strings.Contains(runSource, "stralloc") {
		runSource = stralloc.FullSource() + "\n" + runSource
	}
	if err := traceRun(t, p.ID+" (post,good)", runSource, good, stdin); err != nil {
		return nil, err
	}
	if err := traceRun(t, p.ID+" (post,bad)", runSource, bad, stdin); err != nil {
		return nil, err
	}
	return []string{p.Source, p.Source, runSource, runSource}, nil
}

// traceRun parses, checks and executes one entry point, as the harness
// does, with one span per module.
func traceRun(t *tracer, label, src, entry string, stdin []string) error {
	var (
		unit *cast.TranslationUnit
		err  error
	)
	t.call("cparse.Parse", func() { unit, err = cparse.Parse(label+".c", src) })
	if err != nil {
		return err
	}
	t.call("typecheck.Check", func() { typecheck.Check(unit) })
	t.call("cinterp.Run", func() {
		var in *cinterp.Interp
		if in, err = cinterp.New(unit, cinterp.Limits{}); err == nil {
			in.SetStdin(stdin)
			_, err = in.Run(entry)
		}
	})
	return err
}

// traceStages derives one text's analysis facts through the snapshot
// accessors in dependency order, one span per stage, then runs SLR and
// STR the way core.Fix composes them.
func traceStages(t *tracer, name, text string, be backend.Backend) error {
	var (
		snap *analysis.Snapshot
		err  error
	)
	t.call("stage.cparse", func() { snap, err = analysis.Parse(name, text) })
	if err != nil {
		return err
	}
	t.call("stage.typecheck", func() { snap.Typecheck() })
	t.call("stage.pointsto", func() { snap.PointsTo(); snap.Aliases() })
	t.call("stage.buflen", func() { snap.BufLenAnalyzer() })
	t.call("stage.overflow", func() { snap.Findings(); snap.ExternalCalls() })
	var sres *slr.FileResult
	t.call("stage.slr", func() { sres, err = slr.NewTransformerSnapBackend(snap, be).ApplyAll() })
	if err != nil {
		return err
	}
	strSnap := snap
	if sres.NewSource != text {
		t.call("stage.cparse", func() { strSnap, err = analysis.Parse(name, sres.NewSource) })
		if err != nil {
			return err
		}
	}
	t.call("stage.str", func() { _, err = str.NewTransformerSnap(strSnap).ApplyAll() })
	return err
}

// setStageMetrics reports the analysis stages per input KLOC.
func setStageMetrics(res *result, tot map[string]layerTotals, kloc float64) {
	for _, s := range []struct{ span, metric string }{
		{"stage.cparse", "cparse.ms_per_kloc"},
		{"stage.pointsto", "pointsto.ms_per_kloc"},
		{"stage.buflen", "buflen.ms_per_kloc"},
		{"stage.overflow", "overflow.ms_per_kloc"},
		{"stage.slr", "slr.ms_per_kloc"},
		{"stage.str", "str.ms_per_kloc"},
	} {
		res.set(s.metric, msPer(tot[s.span].dur, kloc), tot[s.span].count, "")
	}
}

// setRuntimeMetrics reports GC and allocation over the untraced pass.
func setRuntimeMetrics(res *result, before, after rtStats, ops float64) {
	cpu := after.totalCPU - before.totalCPU
	gc := 0.0
	if cpu > 0 {
		gc = (after.gcCPU - before.gcCPU) / cpu
	}
	res.set("runtime.gc_cpu_share", gc, 1, "untraced pass")
	res.set("runtime.alloc_mb_per_op", (after.allocBytes-before.allocBytes)/1e6/ops, int(ops), "untraced pass")
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
