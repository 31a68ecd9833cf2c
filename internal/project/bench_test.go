package project

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
)

// BenchmarkProject measures the three project-run shapes on the four
// Table IV stand-ins with their make-test drivers: Fix (no findings),
// Fix with lint findings (plain `cfix -p`, whose default -summary sets
// Lint) and Analyze (`cfix -p -lint`, /v1/project with lint_only).
// Besides ns/op it reports the process CPU time per op, so a change
// that buys wall time with extra CPU shows as such.
func BenchmarkProject(b *testing.B) {
	var projects []*Project
	for _, cp := range corpus.Generate(0) {
		files := map[string]string{cp.Name + "_driver.c": cp.TestDriver()}
		for _, f := range cp.Files {
			files[f.Name] = f.Source
		}
		projects = append(projects, InMemory(files, nil, nil))
	}
	shapes := []struct {
		name     string
		opts     core.Options
		lintOnly bool
	}{
		{"fix", core.Options{}, false},
		{"fix+lint", core.Options{Lint: true}, false},
		{"analyze", core.Options{Lint: true}, true},
	}
	ctx := context.Background()
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			cpu0 := cpuTime()
			for i := 0; i < b.N; i++ {
				for _, p := range projects {
					run := p.Fix
					if s.lintOnly {
						run = p.Analyze
					}
					rep, err := run(ctx, s.opts)
					if err != nil {
						b.Fatal(err)
					}
					for _, out := range rep.Files {
						if out.Err != "" {
							b.Fatalf("%s: %s", out.File, out.Err)
						}
					}
				}
			}
			if cpu := cpuTime() - cpu0; cpu > 0 {
				b.ReportMetric(float64(cpu)/float64(time.Millisecond)/float64(b.N), "cpu-ms/op")
			}
		})
	}
}
