package cpp

import (
	"testing"

	"repro/internal/clex/clextest"
)

// TestTortureLexerDifferential runs the lexer's parser-stream oracle
// over the torture corpus: every case's source, headers and expected
// output. Directive-heavy text is where the single-pass parser stream
// has the most to drop.
func TestTortureLexerDifferential(t *testing.T) {
	for _, tc := range tortureCases {
		texts := []string{tc.src, tc.want}
		for _, h := range tc.headers {
			texts = append(texts, h)
		}
		for _, src := range texts {
			if d := clextest.ParserStreamDiff(src); d != "" {
				t.Fatalf("%s: %q: %s", tc.name, src, d)
			}
		}
	}
}
