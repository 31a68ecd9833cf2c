package clex

import (
	"testing"

	"repro/internal/ctoken"
)

func kinds(toks []ctoken.Token) []ctoken.Kind {
	out := make([]ctoken.Kind, 0, len(toks))
	for _, t := range toks {
		out = append(out, t.Kind)
	}
	return out
}

func TestTokenizeBasics(t *testing.T) {
	toks, err := Tokenize("int x = 42;")
	if err != nil {
		t.Fatal(err)
	}
	want := []ctoken.Kind{
		ctoken.KindKeyword, ctoken.KindIdent, ctoken.KindPunct,
		ctoken.KindIntLit, ctoken.KindPunct, ctoken.KindEOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token count: got %d (%v), want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTokenizeExtentsCoverSource(t *testing.T) {
	src := `char *p = "hi\n"; /* c */ p++;`
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		if tok.Kind == ctoken.KindEOF {
			continue
		}
		if !tok.Extent.IsValid() {
			t.Fatalf("invalid extent on %v", tok)
		}
		if src[tok.Extent.Pos:tok.Extent.End] != tok.Text {
			t.Fatalf("extent mismatch: %q vs %q", src[tok.Extent.Pos:tok.Extent.End], tok.Text)
		}
	}
}

func TestTokenizePunctuators(t *testing.T) {
	tests := []struct {
		src  string
		want []string
	}{
		{"a->b", []string{"a", "->", "b"}},
		{"a<<=b", []string{"a", "<<=", "b"}},
		{"a<<b", []string{"a", "<<", "b"}},
		{"a...", []string{"a", "..."}},
		{"a++ ++b", []string{"a", "++", "++", "b"}},
		{"a+ +b", []string{"a", "+", "+", "b"}},
		{"x-=-1", []string{"x", "-=", "-", "1"}},
	}
	for _, tt := range tests {
		toks, err := Tokenize(tt.src)
		if err != nil {
			t.Fatalf("%s: %v", tt.src, err)
		}
		var got []string
		for _, tok := range toks {
			if tok.Kind != ctoken.KindEOF {
				got = append(got, tok.Text)
			}
		}
		if len(got) != len(tt.want) {
			t.Fatalf("%s: got %v, want %v", tt.src, got, tt.want)
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("%s token %d: got %q, want %q", tt.src, i, got[i], tt.want[i])
			}
		}
	}
}

func TestTokenizeNumbers(t *testing.T) {
	tests := []struct {
		src  string
		kind ctoken.Kind
	}{
		{"42", ctoken.KindIntLit},
		{"0x1F", ctoken.KindIntLit},
		{"077", ctoken.KindIntLit},
		{"42UL", ctoken.KindIntLit},
		{"1.5", ctoken.KindFloatLit},
		{"1e9", ctoken.KindFloatLit},
		{"1.5e-3", ctoken.KindFloatLit},
		{"2.0f", ctoken.KindFloatLit},
	}
	for _, tt := range tests {
		toks, err := Tokenize(tt.src)
		if err != nil {
			t.Fatalf("%s: %v", tt.src, err)
		}
		if toks[0].Kind != tt.kind || toks[0].Text != tt.src {
			t.Errorf("%s: got %v %q, want %v", tt.src, toks[0].Kind, toks[0].Text, tt.kind)
		}
	}
}

func TestTokenizeStringsAndChars(t *testing.T) {
	toks, err := Tokenize(`"a\"b" 'c' '\n' '\''`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != ctoken.KindStringLit || toks[0].Text != `"a\"b"` {
		t.Errorf("string: got %v", toks[0])
	}
	for i := 1; i <= 3; i++ {
		if toks[i].Kind != ctoken.KindCharLit {
			t.Errorf("char %d: got %v", i, toks[i])
		}
	}
}

func TestTokenizeDirectivesAndComments(t *testing.T) {
	src := "# 1 \"file.c\"\nint x; // end\n/* multi\nline */ int y;"
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	var nDir, nCom int
	for _, tok := range toks {
		switch tok.Kind {
		case ctoken.KindDirective:
			nDir++
		case ctoken.KindComment:
			nCom++
		}
	}
	if nDir != 1 || nCom != 2 {
		t.Fatalf("directives=%d comments=%d, want 1 and 2", nDir, nCom)
	}
	ptoks, err := TokenizeForParser(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range ptoks {
		if tok.Kind == ctoken.KindDirective || tok.Kind == ctoken.KindComment {
			t.Fatalf("parser stream should filter %v", tok)
		}
	}
}

func TestTokenizeUnterminatedString(t *testing.T) {
	_, err := Tokenize(`"abc`)
	if err == nil {
		t.Fatal("expected error for unterminated string")
	}
}

func TestTokenizeUnterminatedComment(t *testing.T) {
	_, err := Tokenize("/* abc")
	if err == nil {
		t.Fatal("expected error for unterminated comment")
	}
}

func TestFilePositions(t *testing.T) {
	f := ctoken.NewFile("t.c", "ab\ncd\nef")
	tests := []struct {
		off  ctoken.Pos
		line int
		col  int
	}{
		{0, 1, 1}, {1, 1, 2}, {3, 2, 1}, {4, 2, 2}, {6, 3, 1},
	}
	for _, tt := range tests {
		p := f.Position(tt.off)
		if p.Line != tt.line || p.Col != tt.col {
			t.Errorf("offset %d: got %d:%d, want %d:%d", tt.off, p.Line, p.Col, tt.line, tt.col)
		}
	}
}

// TestPunctLenMatchesPunctuatorSets pins scanPunct's lead-byte switch to
// the C punctuator sets, longest match first: every string of up to
// three bytes over the punctuator alphabet (plus bytes that start none)
// must measure the same as a lookup in the sets.
func TestPunctLenMatchesPunctuatorSets(t *testing.T) {
	sets := [3]map[string]bool{{}, {}, {}}
	for _, p := range []string{
		"[", "]", "(", ")", "{", "}", ".", "&", "*", "+", "-", "~", "!", "/",
		"%", "<", ">", "^", "|", "?", ":", ";", "=", ",",
		"->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
		"+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
		"<<=", ">>=", "...",
	} {
		sets[len(p)-1][p] = true
	}
	want := func(s string) int {
		for n := 3; n >= 1; n-- {
			if len(s) >= n && sets[n-1][s[:n]] {
				return n
			}
		}
		return 0
	}
	alphabet := "[](){}.&*+-~!/%<>^|?:;=,#@$a0 \x00"
	var check func(prefix string)
	check = func(prefix string) {
		if prefix != "" {
			if got := punctLen(prefix); got != want(prefix) {
				t.Fatalf("punctLen(%q) = %d, want %d", prefix, got, want(prefix))
			}
		}
		if len(prefix) == 3 {
			return
		}
		for i := 0; i < len(alphabet); i++ {
			check(prefix + alphabet[i:i+1])
		}
	}
	check("")
}
