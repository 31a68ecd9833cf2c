// Package harness runs the paper's end-to-end protocol on one program:
// execute the good and bad functions under the checked interpreter, apply
// SLR and then STR in batch mode, re-execute, and judge the two claims of
// Section IV-A — the bad function's overflow is fixed, and the good
// function's observable behavior is preserved.
package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cast"
	"repro/internal/cinterp"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/obs"
	"repro/internal/stralloc"
	"repro/internal/typecheck"
)

// Verdict is the outcome of verifying one program.
type Verdict struct {
	ID string

	// Pre/Post execution results for the good and bad entry points.
	PreGood, PreBad   *cinterp.Result
	PostGood, PostBad *cinterp.Result

	// SLRSites / SLRApplied count candidate and transformed call sites.
	SLRSites, SLRApplied int
	// STRVars / STRApplied count candidate and replaced variables.
	STRVars, STRApplied int

	// VulnDetected: the untransformed bad function produced at least one
	// memory-safety violation (sanity check on the benchmark program).
	VulnDetected bool
	// Fixed: the transformed bad function produced no violations.
	Fixed bool
	// Preserved: the transformed good function produced no violations and
	// byte-identical output to the original good function.
	Preserved bool

	// TransformedSource is the final program text (after SLR then STR).
	TransformedSource string

	// Degraded lists the analyses the transformation pipeline had to cut
	// short (budget exhaustion, skipped stages); empty for a full-fidelity
	// run. Mirrors core.Report.Degraded.
	Degraded []string
}

// Options configures verification.
type Options struct {
	// Stdin lines are re-queued before every run.
	Stdin []string
	// Limits bound each execution.
	Limits cinterp.Limits
	// SkipSLR / SkipSTR disable one transformation (for ablations).
	SkipSLR bool
	SkipSTR bool
	// Backend names the repair dialect SLR rewrites into ("" = glib).
	// The checked interpreter models every registered dialect's safe
	// functions, so verification runs the same protocol regardless.
	Backend string
	// Tracer, when non-nil, records stage spans (the experiment harness
	// feeds them into Table III's per-stage breakdown): Transform's
	// core.Fix spans, plus parse and typecheck for each text the
	// verification runs load and interp for each run.
	Tracer *obs.Tracer
}

// Verify runs the full protocol. goodEntry and badEntry name the two
// functions to execute.
//
// Each distinct text is parsed and type-checked once: the original
// source's unit serves both pre-transform runs and the transformed
// text's unit both post-transform runs. The interpreter never writes to
// the AST, so a unit is safely shared; every run gets a fresh
// interpreter, because one keeps its globals across runs.
func Verify(id, source, goodEntry, badEntry string, opts Options) (*Verdict, error) {
	v := &Verdict{ID: id}

	pre, err := load(id+" (pre)", source, opts)
	if err != nil {
		return nil, err
	}
	v.PreGood, err = run(pre, id+" (pre,good)", goodEntry, opts)
	if err != nil {
		return nil, err
	}
	v.PreBad, err = run(pre, id+" (pre,bad)", badEntry, opts)
	if err != nil {
		return nil, err
	}
	v.VulnDetected = v.PreBad.HasViolations()

	transformed, err := Transform(id, source, opts, v)
	if err != nil {
		return nil, err
	}
	v.TransformedSource = transformed

	post, err := load(id+" (post)", runSource(transformed), opts)
	if err != nil {
		return nil, fmt.Errorf("harness: post-transform: %w", err)
	}
	v.PostGood, err = run(post, id+" (post,good)", goodEntry, opts)
	if err != nil {
		return nil, fmt.Errorf("harness: post-transform good run: %w", err)
	}
	v.PostBad, err = run(post, id+" (post,bad)", badEntry, opts)
	if err != nil {
		return nil, fmt.Errorf("harness: post-transform bad run: %w", err)
	}

	v.Fixed = !v.PostBad.HasViolations()
	v.Preserved = !v.PostGood.HasViolations() && v.PostGood.Stdout == v.PreGood.Stdout
	return v, nil
}

// Transform applies SLR then STR in batch mode through the pipeline's
// composition root (core.Fix), recording counts and degradations in v
// (which may be nil). Running through core.Fix means the harness
// exercises the exact code path users get — fault boundary included —
// and the equivalence suite pins both to identical decisions.
func Transform(id, source string, opts Options, v *Verdict) (string, error) {
	rep, err := core.Fix(context.Background(), id+".c", source, core.Options{
		DisableSLR:   opts.SkipSLR,
		DisableSTR:   opts.SkipSTR,
		SelectOffset: -1,
		Backend:      opts.Backend,
		Tracer:       opts.Tracer,
	})
	if err != nil {
		return "", fmt.Errorf("harness: transform: %w", err)
	}
	if v != nil {
		if rep.SLR != nil {
			v.SLRSites = rep.SLR.Candidates()
			v.SLRApplied = rep.SLR.AppliedCount()
		}
		if rep.STR != nil {
			v.STRVars = rep.STR.Candidates()
			v.STRApplied = rep.STR.AppliedCount()
		}
		v.Degraded = append(v.Degraded, rep.Degraded...)
	}
	return rep.Source, nil
}

// runSource returns the text the post-transform runs execute: the
// transformed program, prefixed with the stralloc library's C source
// when STR introduced the type.
func runSource(transformed string) string {
	if strings.Contains(transformed, "stralloc") {
		return stralloc.FullSource() + "\n" + transformed
	}
	return transformed
}

// load parses and type-checks one text, under a span per step when
// tracing. The unit's file name is label+".c".
func load(label, source string, opts Options) (*cast.TranslationUnit, error) {
	sp := opts.Tracer.Start(context.Background(), obs.StageParse, label)
	unit, err := cparse.Parse(label+".c", source)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("harness: parse %s: %w", label, err)
	}
	sp = opts.Tracer.Start(context.Background(), obs.StageTypecheck, label)
	typecheck.Check(unit)
	sp.End()
	return unit, nil
}

// run executes one entry point of a loaded unit on a fresh interpreter.
func run(unit *cast.TranslationUnit, label, entry string, opts Options) (*cinterp.Result, error) {
	sp := opts.Tracer.Start(context.Background(), obs.StageInterp, label)
	defer sp.End()
	in, err := cinterp.New(unit, opts.Limits)
	if err != nil {
		return nil, fmt.Errorf("harness: init %s: %w", label, err)
	}
	in.SetStdin(opts.Stdin)
	res, err := in.Run(entry)
	if err != nil {
		return nil, fmt.Errorf("harness: run %s: %w", label, err)
	}
	return res, nil
}
