package experiments

import (
	"context"
	"encoding/json"
	"io"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/samate"
)

// BenchReport is the machine-readable pipeline benchmark the CI run
// uploads as BENCH_pipeline.json (cmd/experiments -bench-json): the
// Table III SAMATE run's per-stage time breakdown in a stable schema a
// regression checker can diff across commits.
type BenchReport struct {
	// Suite identifies the workload; fixed so downstream tooling can
	// key on it.
	Suite string `json:"suite"`
	// GoVersion, GOOS/GOARCH and CPUs qualify the numbers: absolute
	// times are only comparable on like hardware.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// Stride and Workers echo the run's sampling and parallelism.
	Stride  int `json:"stride"`
	Workers int `json:"workers"`
	// Backend is the canonical repair dialect the run applied; numbers
	// from different dialects are not comparable (different call shapes
	// rewrite to different amounts of text).
	Backend string `json:"backend"`
	// Programs counts processed SAMATE programs; WallUs is the whole
	// run's wall clock in microseconds.
	Programs int   `json:"programs"`
	WallUs   int64 `json:"wall_us"`
	// Stages is the corpus-wide per-stage aggregate (self time is
	// exclusive of nested stages; summing SelfUs approximates the
	// pipeline's traced work).
	Stages []BenchStage `json:"stages"`
	// CWEs breaks the grouped columns down per CWE class.
	CWEs []BenchCWE `json:"cwes"`
}

// BenchStage is one stage's aggregate in the report.
type BenchStage struct {
	Name     string `json:"name"`
	Count    int    `json:"count"`
	TotalUs  int64  `json:"total_us"`
	SelfUs   int64  `json:"self_us"`
	MinUs    int64  `json:"min_us"`
	MaxUs    int64  `json:"max_us"`
	Degraded int    `json:"degraded,omitempty"`
	// Supplementary marks a stage measured outside the benchmark's fix
	// pipeline (the integer-overflow oracle, which the pipeline run
	// keeps disabled). benchguard's -pipeline gate excludes
	// supplementary stages from the pipeline total it budgets.
	Supplementary bool `json:"supplementary,omitempty"`
}

// BenchCWE is one CWE class's row in the report.
type BenchCWE struct {
	CWE       int    `json:"cwe"`
	Programs  int    `json:"programs"`
	WallUs    int64  `json:"wall_us"`
	ParseUs   int64  `json:"parse_us"`
	AnalyzeUs int64  `json:"analyze_us"`
	SLRUs     int64  `json:"slr_us"`
	STRUs     int64  `json:"str_us"`
	InterpUs  int64  `json:"interp_us"`
	Degraded  int    `json:"degraded,omitempty"`
	Errors    int    `json:"errors,omitempty"`
	Name      string `json:"name"`
}

// us converts to integer microseconds.
func us(d time.Duration) int64 { return int64(d / time.Microsecond) }

// BuildBenchReport assembles the report from a stage-collecting
// RunTableIII's rows. wall is the whole run's measured wall clock.
func BuildBenchReport(rows []CWEResult, opts TableIIIOptions, wall time.Duration) BenchReport {
	rep := BenchReport{
		Suite:     "cfix-pipeline-samate",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Stride:    opts.Stride,
		Workers:   opts.Workers,
		WallUs:    us(wall),
	}
	if len(rows) > 0 {
		rep.Backend = rows[0].Backend
	}
	for _, st := range totalStages(rows) {
		rep.Stages = append(rep.Stages, BenchStage{
			Name:     st.Name,
			Count:    st.Count,
			TotalUs:  us(st.Total),
			SelfUs:   us(st.Self),
			MinUs:    us(st.Min),
			MaxUs:    us(st.Max),
			Degraded: st.Degraded,
		})
	}
	for _, r := range rows {
		rep.Programs += r.Programs
		rep.CWEs = append(rep.CWEs, BenchCWE{
			CWE:       r.CWE,
			Name:      r.Name,
			Programs:  r.Programs,
			WallUs:    us(r.WallTime),
			ParseUs:   us(r.ParseTime),
			AnalyzeUs: us(r.AnalyzeTime),
			SLRUs:     us(r.SLRTime),
			STRUs:     us(r.STRTime),
			InterpUs:  us(r.InterpTime),
			Degraded:  r.Degraded,
			Errors:    r.Errors,
		})
	}
	return rep
}

// MeasureIntflowStage runs the integer-overflow oracle over the same
// strided SAMATE sample as the pipeline benchmark (plus the
// integer-overflow corpus, where the oracle actually finds something)
// with a tracer attached, and returns the oracle's own stage aggregate.
// The Table III run never executes the oracle — lint stays off — so
// this is a supplementary measurement answering "what would
// -checks=int add?"; benchguard's -pipeline mode gates the answer. The
// self time excludes the nested snapshot facts (call graph, CFGs,
// may-modify) the oracle shares with the rest of the pipeline. ok is
// false when tracing is compiled out (cfix_notrace) or the stage
// recorded no spans.
func MeasureIntflowStage(stride, workers int) (st BenchStage, ok bool, err error) {
	if stride < 1 {
		stride = 1
	}
	var picked []samate.Program
	for _, cwe := range samate.CWEs {
		progs := samate.Generate(cwe, samate.TableIIICounts[cwe])
		for i := 0; i < len(progs); i += stride {
			picked = append(picked, progs[i])
		}
	}
	for _, cwe := range samate.IntCWEs {
		progs := samate.IntGenerate(cwe, samate.IntTableCounts[cwe])
		for i := 0; i < len(progs); i += stride {
			picked = append(picked, progs[i])
		}
	}
	tr := obs.NewTracer()
	errs := analysis.Map(workers, picked, func(_ int, p samate.Program) error {
		snap, err := analysis.ParseCtx(context.Background(), p.ID+".c", p.Source,
			analysis.Config{Tracer: tr})
		if err != nil {
			return err
		}
		snap.IntFindings()
		return nil
	})
	for _, e := range errs {
		if e != nil {
			return BenchStage{}, false, e
		}
	}
	for _, s := range tr.StageStats() {
		if s.Name == obs.StageIntflow {
			return BenchStage{
				Name:          s.Name,
				Count:         s.Count,
				TotalUs:       us(s.Total),
				SelfUs:        us(s.Self),
				MinUs:         us(s.Min),
				MaxUs:         us(s.Max),
				Degraded:      s.Degraded,
				Supplementary: true,
			}, true, nil
		}
	}
	return BenchStage{}, false, nil
}

// WriteBenchJSON writes the report, indented for diff-friendly
// artifacts.
func WriteBenchJSON(w io.Writer, rep BenchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
