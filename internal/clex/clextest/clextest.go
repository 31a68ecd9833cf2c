// Package clextest holds the lexer's differential oracle for tests: the
// parser-facing token stream must equal the full stream with comments
// and directives filtered out. The lexer, parser and preprocessor tests
// run it over their own corpora.
package clextest

import (
	"fmt"
	"reflect"

	"repro/internal/clex"
	"repro/internal/ctoken"
)

// ParserStreamDiff describes how clex.TokenizeForParser(src) departs
// from clex.Tokenize(src) with comment and directive tokens dropped,
// error value included; "" when the two agree.
func ParserStreamDiff(src string) string {
	full, wantErr := clex.Tokenize(src)
	got, gotErr := clex.TokenizeForParser(src)
	if !reflect.DeepEqual(gotErr, wantErr) {
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	}
	if wantErr != nil {
		if got != nil {
			return fmt.Sprintf("%d tokens returned beside error %v", len(got), wantErr)
		}
		return ""
	}
	want := make([]ctoken.Token, 0, len(full))
	for _, t := range full {
		if t.Kind != ctoken.KindComment && t.Kind != ctoken.KindDirective {
			want = append(want, t)
		}
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			return fmt.Sprintf("stream ends at token %d, want %+v", i, want[i])
		case i >= len(want):
			return fmt.Sprintf("extra token %d: %+v", i, got[i])
		case got[i] != want[i]:
			return fmt.Sprintf("token %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	return ""
}
