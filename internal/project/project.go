// Package project drives the fixer across a whole C project: it loads a
// compile_commands.json database (or an in-memory file set), preprocesses
// every translation unit with internal/cpp, links the per-TU call graphs
// by symbol name, and runs the core pipeline per file with cross-TU call
// seeds — so an overflow provable only from a caller in another file is
// found and fixed, and every edit still lands in the text the user wrote.
//
// The link is a two-round protocol (DESIGN.md Section 16):
//
//  1. Scan: each TU is preprocessed and parsed once, its job (fix or
//     analysis) runs on that parse without seeds, and then calls to
//     functions the TU does not define are evaluated under the caller's
//     interval state and exported as overflow.CallSeed values.
//  2. Reanalyze: seeds are routed to the TU that defines their callee
//     (by symbol name — C has one flat namespace for external linkage).
//     Seeds reach an outcome only through lint findings, so only lint
//     and Analyze runs have this round: the whole project parses first,
//     and the TUs another TU calls into defer their job to here, where
//     it runs with Options.ExternSeeds, exploring the transported
//     contexts exactly like local call edges.
//
// Each round fans the TUs out over one worker per CPU (analysis.MapCtx)
// and merges their results in TU order, so everything stays
// deterministic: DefinedBy is first-wins in database order, edges and
// outcomes follow it, seeds sort before fingerprinting, and a file's
// cache key absorbs both its headers (IncludeHash) and its incoming
// seeds (SeedFingerprint).
package project

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cast"
	"repro/internal/core"
	"repro/internal/cpp"
	"repro/internal/fault"
	"repro/internal/overflow"
)

// Command is one entry of a Clang-style compile_commands.json database.
// Exactly one of Command or Arguments is normally set.
type Command struct {
	Directory string   `json:"directory"`
	File      string   `json:"file"`
	Command   string   `json:"command,omitempty"`
	Arguments []string `json:"arguments,omitempty"`
	Output    string   `json:"output,omitempty"`
}

// TU is one translation unit resolved from the database: the main file
// plus the preprocessor configuration its compile command implies.
type TU struct {
	// File is the unit's path as the project addresses it (absolute for
	// database-loaded projects, verbatim for in-memory ones).
	File string
	// Source is the unit's original text.
	Source string
	// CppOpts carries the -I/-D flags translated for internal/cpp. The
	// Open hook is set for in-memory projects.
	CppOpts cpp.Options
}

// Project is a set of translation units processed together.
type Project struct {
	TUs []*TU
}

// LoadCompileCommands parses a compile_commands.json file into its raw
// entries, without reading any sources.
func LoadCompileCommands(path string) ([]Command, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("project: %w", err)
	}
	var cmds []Command
	if err := json.Unmarshal(b, &cmds); err != nil {
		return nil, fmt.Errorf("project: parse %s: %w", path, err)
	}
	return cmds, nil
}

// Load builds a Project from a compile_commands.json file: every .c
// entry is read from disk and its -I/-D flags are translated into
// cpp.Options (relative include dirs resolve against the entry's
// Directory). Non-C entries (assembly, C++) are skipped.
func Load(path string) (*Project, error) {
	cmds, err := LoadCompileCommands(path)
	if err != nil {
		return nil, err
	}
	p := &Project{}
	seen := make(map[string]bool)
	for _, cmd := range cmds {
		file := cmd.File
		if !filepath.IsAbs(file) {
			file = filepath.Join(cmd.Directory, file)
		}
		file = filepath.Clean(file)
		if seen[file] || !strings.HasSuffix(file, ".c") {
			continue
		}
		seen[file] = true
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("project: read %s: %w", cmd.File, err)
		}
		args := cmd.Arguments
		if len(args) == 0 {
			args = splitCommand(cmd.Command)
		}
		opts := argsToCppOptions(args, cmd.Directory)
		p.TUs = append(p.TUs, &TU{File: file, Source: string(src), CppOpts: opts})
	}
	if len(p.TUs) == 0 {
		return nil, fmt.Errorf("project: no C translation units in %s", path)
	}
	return p, nil
}

// InMemory builds a Project from in-memory sources: files maps unit
// names to C sources, headers maps include names to header text, and
// includeDirs seeds the include search path. This is the daemon's batch
// mode and the test harness — nothing touches the filesystem.
func InMemory(files map[string]string, headers map[string]string, includeDirs []string) *Project {
	open := func(path string) (string, bool) {
		if s, ok := headers[path]; ok {
			return s, true
		}
		// Headers may resolve through a join with the includer's
		// directory ("." for top-level names).
		if s, ok := headers[filepath.Clean(path)]; ok {
			return s, true
		}
		if s, ok := files[path]; ok {
			return s, true
		}
		return "", false
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	p := &Project{}
	for _, name := range names {
		p.TUs = append(p.TUs, &TU{
			File:    name,
			Source:  files[name],
			CppOpts: cpp.Options{IncludeDirs: includeDirs, Open: open},
		})
	}
	return p
}

// argsToCppOptions translates the flags internal/cpp understands:
// -I<dir> / -I <dir> (include path) and -D<name>[=<val>] / -D <name>
// (predefined macros). Everything else — optimization, warnings, the
// compiler name, the source file — is ignored.
func argsToCppOptions(args []string, dir string) cpp.Options {
	opts := cpp.Options{Defines: map[string]string{}}
	resolve := func(d string) string {
		if d != "" && !filepath.IsAbs(d) && dir != "" {
			return filepath.Join(dir, d)
		}
		return d
	}
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-I" && i+1 < len(args):
			i++
			opts.IncludeDirs = append(opts.IncludeDirs, resolve(args[i]))
		case strings.HasPrefix(a, "-I"):
			opts.IncludeDirs = append(opts.IncludeDirs, resolve(a[2:]))
		case a == "-D" && i+1 < len(args):
			i++
			addDefine(opts.Defines, args[i])
		case strings.HasPrefix(a, "-D"):
			addDefine(opts.Defines, a[2:])
		}
	}
	return opts
}

func addDefine(m map[string]string, d string) {
	if d == "" {
		return
	}
	if eq := strings.IndexByte(d, '='); eq >= 0 {
		m[d[:eq]] = d[eq+1:]
		return
	}
	m[d] = "1"
}

// splitCommand tokenizes a shell command line the way build systems
// quote them: whitespace-separated, honoring single quotes, double
// quotes, and backslash escapes. It does not expand variables.
func splitCommand(s string) []string {
	var out []string
	var cur strings.Builder
	inField := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			if inField {
				out = append(out, cur.String())
				cur.Reset()
				inField = false
			}
		case c == '\'':
			inField = true
			for i++; i < len(s) && s[i] != '\''; i++ {
				cur.WriteByte(s[i])
			}
		case c == '"':
			inField = true
			for i++; i < len(s) && s[i] != '"'; i++ {
				if s[i] == '\\' && i+1 < len(s) && (s[i+1] == '"' || s[i+1] == '\\') {
					i++
				}
				cur.WriteByte(s[i])
			}
		case c == '\\' && i+1 < len(s):
			inField = true
			i++
			cur.WriteByte(s[i])
		default:
			inField = true
			cur.WriteByte(c)
		}
	}
	if inField {
		out = append(out, cur.String())
	}
	return out
}

// CrossEdge is one linked cross-TU call: a call in CallerFile to a
// function defined in CalleeFile.
type CrossEdge struct {
	CallerFile string `json:"caller_file"`
	Caller     string `json:"caller"`
	CalleeFile string `json:"callee_file"`
	Callee     string `json:"callee"`
}

// Link is the project-level symbol linkage computed by the scan round.
type Link struct {
	// DefinedBy maps every externally visible function definition to the
	// file that defines it. On duplicate definitions the first TU (in
	// project order) wins, matching the linker's first-object rule
	// closely enough for analysis.
	DefinedBy map[string]string
	// Edges lists the resolved cross-TU calls in scan order.
	Edges []CrossEdge
	// SeedsFor routes the transported call seeds: file -> seeds whose
	// callee that file defines.
	SeedsFor map[string][]overflow.CallSeed
}

// FileOutcome is one TU's result in a project run.
type FileOutcome struct {
	File string `json:"file"`
	// Fix is set for Fix runs, Lint for Analyze runs.
	Fix  *core.Report     `json:"fix,omitempty"`
	Lint *core.LintReport `json:"lint,omitempty"`
	// Includes lists the headers the preprocessor inlined, in first-use
	// order.
	Includes []string `json:"includes,omitempty"`
	// Err carries a per-file failure (the run continues; project mode is
	// keep-going across files by construction).
	Err string `json:"err,omitempty"`
}

// Report is the outcome of a project run.
type Report struct {
	Files []FileOutcome `json:"files"`
	// Edges lists the cross-TU calls the scan round linked.
	Edges []CrossEdge `json:"edges,omitempty"`
}

// parsedTU is one TU preprocessed and parsed, the first half of its
// scan.
type parsedTU struct {
	pp   *cpp.Result
	unit *cast.TranslationUnit
	// defs names the functions the unit defines, in unit order.
	defs []string
	err  error
}

// parseTU preprocesses and parses one TU, bounded by Options.Timeout.
func parseTU(ctx context.Context, tu *TU, opts core.Options) (u parsedTU) {
	ctx, cancel := core.FileCtx(ctx, opts)
	defer cancel()
	defer fault.Recover(&u.err)
	if u.err = ctx.Err(); u.err != nil {
		return u
	}
	pp, err := cpp.Preprocess(tu.File, tu.Source, tu.CppOpts)
	if err != nil {
		u.err = fmt.Errorf("preprocess: %w", err)
		return u
	}
	snap, err := core.ParseUnit(ctx, tu.File, pp.Text, opts)
	if err != nil {
		u.err = fmt.Errorf("parse: %w", err)
		return u
	}
	u.pp, u.unit = pp, snap.Unit()
	for _, fn := range u.unit.Funcs {
		u.defs = append(u.defs, fn.Name)
	}
	return u
}

// scanned is one TU's round-1 result.
type scanned struct {
	// out is the TU's seedless outcome, final unless round 2 runs the
	// TU's job; a TU that did not parse has only out.Err.
	out FileOutcome
	// defs is parsedTU.defs.
	defs []string
	// seeds are the TU's external calls, exported for the link.
	seeds []overflow.CallSeed
	// exportErr is a failed export: the TU sends no seeds, and its
	// final report says so.
	exportErr error
	// deferred is the TU's preprocess when its job waits for round 2
	// because the link may route seeds to it.
	deferred *cpp.Result
}

// scanTU is the rest of round 1 for one parsed TU, bounded by
// Options.Timeout: run the TU's job without seeds (the fix, or the
// analysis when lintOnly) unless deferJob, and only then export the
// external calls, so the report never sees degradations of the analyses
// the export runs. A failed export leaves the outcome standing.
func scanTU(ctx context.Context, tu *TU, opts core.Options, lintOnly bool, u parsedTU, deferJob bool) scanned {
	sc := scanned{out: FileOutcome{File: tu.File}}
	if u.err != nil {
		sc.out.Err = u.err.Error()
		return sc
	}
	sc.defs = u.defs
	ctx, cancel := core.FileCtx(ctx, opts)
	defer cancel()
	snap := core.UnitSnapshot(ctx, u.unit, opts)
	if deferJob {
		sc.deferred = u.pp
	} else {
		sc.out = runJob(ctx, tu, u.pp, snap, opts, lintOnly)
	}
	sc.seeds, sc.exportErr = exportCalls(snap)
	return sc
}

// runJob fixes or (lintOnly) analyzes one preprocessed TU; snap is its
// fresh snapshot, or nil to parse pp.Text under opts.
func runJob(ctx context.Context, tu *TU, pp *cpp.Result, snap *analysis.Snapshot, opts core.Options, lintOnly bool) FileOutcome {
	out := FileOutcome{File: tu.File, Includes: pp.Includes}
	var err error
	if lintOnly {
		out.Lint, err = core.AnalyzeUnit(ctx, tu.File, pp, snap, opts)
	} else {
		out.Fix, err = core.FixUnit(ctx, tu.File, tu.Source, tu.CppOpts, pp, snap, opts)
	}
	if err != nil {
		return FileOutcome{File: tu.File, Err: err.Error()}
	}
	return out
}

// exportCalls is snap.ExternalCalls with a deadline or contained panic
// returned as an error.
func exportCalls(snap *analysis.Snapshot) (seeds []overflow.CallSeed, err error) {
	defer fault.Recover(&err)
	return snap.ExternalCalls(), nil
}

// definedBy maps every function defined in the project to the file of
// the first TU, in project order, that defines it.
func definedBy(tus []*TU, defs func(i int) []string) map[string]string {
	by := make(map[string]string)
	for i, tu := range tus {
		for _, name := range defs(i) {
			if _, dup := by[name]; !dup {
				by[name] = tu.File
			}
		}
	}
	return by
}

// maySeed marks the TUs the link can route seeds to: those whose file
// defines, first in project order, a function that another TU calls by
// name without defining it. Every seed's callee is such a function.
func maySeed(tus []*TU, units []parsedTU) []bool {
	by := definedBy(tus, func(i int) []string { return units[i].defs })
	called := make(map[string]bool)
	for _, u := range units {
		if u.unit == nil {
			continue
		}
		own := make(map[string]bool, len(u.defs))
		for _, name := range u.defs {
			own[name] = true
		}
		for _, fn := range u.unit.Funcs {
			cast.Inspect(fn.Body, func(n cast.Node) bool {
				if call, ok := n.(*cast.CallExpr); ok {
					if name := call.Callee(); !own[name] {
						if file, ok := by[name]; ok {
							called[file] = true
						}
					}
				}
				return true
			})
		}
	}
	wait := make([]bool, len(tus))
	for i, tu := range tus {
		wait[i] = called[tu.File]
	}
	return wait
}

// link builds the project linkage from the scans, in TU order.
func link(tus []*TU, scans []scanned) *Link {
	l := &Link{SeedsFor: make(map[string][]overflow.CallSeed)}
	l.DefinedBy = definedBy(tus, func(i int) []string { return scans[i].defs })
	for i, sc := range scans {
		caller := tus[i].File
		for _, seed := range sc.seeds {
			target, defined := l.DefinedBy[seed.Callee]
			if !defined || target == caller {
				// Library calls and (degenerate) self-routing stay local.
				continue
			}
			l.Edges = append(l.Edges, CrossEdge{
				CallerFile: caller, Caller: seed.Caller,
				CalleeFile: target, Callee: seed.Callee,
			})
			l.SeedsFor[target] = append(l.SeedsFor[target], seed)
		}
	}
	return l
}

// noteUnexported records in out's report that the TU's external calls
// were not exported, so no seed from it reached another TU.
func (out *FileOutcome) noteUnexported(err error) {
	note := "link: external calls not exported: " + err.Error()
	switch {
	case out.Fix != nil:
		out.Fix.Degraded = append(out.Fix.Degraded, note)
	case out.Lint != nil:
		out.Lint.Degraded = append(out.Lint.Degraded, note)
	}
}

// Fix runs the two-round project pipeline and returns per-file fix
// reports with edits applied to the original (pre-expansion) sources.
// Per-file failures are recorded in the outcome, not fatal; err is
// non-nil only for whole-project failures (context cancellation, which
// still leaves one outcome per TU). Options.Timeout bounds each phase
// of a TU's work: its parse, its round-1 job and export, and its
// round-2 job.
func (p *Project) Fix(ctx context.Context, opts core.Options) (*Report, error) {
	return p.run(ctx, opts, false)
}

// Analyze is the lint-only project run: same scan and seed routing,
// findings instead of fixes.
func (p *Project) Analyze(ctx context.Context, opts core.Options) (*Report, error) {
	return p.run(ctx, opts, true)
}

func (p *Project) run(ctx context.Context, opts core.Options, lintOnly bool) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Project mode is always batch: the case-by-case offset selector
	// addresses one file's original coordinates and has no meaning
	// across a database run.
	opts.SelectOffset = -1
	var scans []scanned
	if lintOnly || opts.Lint {
		// Seeds reach an outcome only through lint findings. Here the
		// whole project parses first, so the jobs of the TUs the link
		// may route seeds to wait for round 2 and run once.
		units := analysis.MapCtx(ctx, 0, p.TUs, func(ctx context.Context, _ int, tu *TU) parsedTU {
			return parseTU(ctx, tu, opts)
		})
		wait := maySeed(p.TUs, units)
		scans = analysis.MapCtx(ctx, 0, p.TUs, func(ctx context.Context, i int, tu *TU) scanned {
			u := units[i]
			units[i] = parsedTU{}
			return scanTU(ctx, tu, opts, lintOnly, u, wait[i])
		})
	} else {
		// No job waits, so each TU's parse, job and export are one task
		// and only one AST per worker is live.
		scans = analysis.MapCtx(ctx, 0, p.TUs, func(ctx context.Context, _ int, tu *TU) scanned {
			return scanTU(ctx, tu, opts, lintOnly, parseTU(ctx, tu, opts), false)
		})
	}
	l := link(p.TUs, scans)
	files := analysis.MapCtx(ctx, 0, p.TUs, func(ctx context.Context, i int, tu *TU) FileOutcome {
		sc := scans[i]
		out := sc.out
		if sc.deferred != nil {
			fopts := opts
			fopts.ExternSeeds = l.SeedsFor[tu.File]
			out = runJob(ctx, tu, sc.deferred, nil, fopts, lintOnly)
		}
		if sc.exportErr != nil {
			out.noteUnexported(sc.exportErr)
		}
		return out
	})
	return &Report{Files: files, Edges: l.Edges}, ctx.Err()
}
