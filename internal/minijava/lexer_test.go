package minijava

import "testing"

func TestLexBasics(t *testing.T) {
	toks, err := LexAll("t.mj", "class Foo { int x; }")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind TokenKind
		text string
	}{
		{TokKeyword, "class"}, {TokIdent, "Foo"}, {TokPunct, "{"},
		{TokKeyword, "int"}, {TokIdent, "x"}, {TokPunct, ";"},
		{TokPunct, "}"}, {TokEOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = (%v, %q), want (%v, %q)", i, toks[i].Kind, toks[i].Text, w.kind, w.text)
		}
	}
}

func TestLexOperators(t *testing.T) {
	toks, err := LexAll("t.mj", "== != <= >= && || < > = ! + - * / %")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"==", "!=", "<=", ">=", "&&", "||", "<", ">", "=", "!", "+", "-", "*", "/", "%"}
	for i, w := range want {
		if toks[i].Text != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].Text, w)
		}
	}
}

func TestLexIntLiteral(t *testing.T) {
	toks, err := LexAll("t.mj", "12345 0")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Val != 12345 || toks[1].Val != 0 {
		t.Errorf("int values = %d %d", toks[0].Val, toks[1].Val)
	}
}

func TestLexIntOverflow(t *testing.T) {
	for _, tc := range []struct {
		lit string
		ok  bool
	}{
		{"9223372036854775807", true},
		{"9223372036854775808", false},
		// Wraps past zero and lands above its 19-digit prefix: a check for
		// "the value went down" misses it.
		{"25000000000000000000", false},
		{"99999999999999999999999999", false},
		{"1234567890123456789012345678901234567890", false},
	} {
		toks, err := LexAll("t.mj", "x =\n  "+tc.lit+";")
		if tc.ok {
			if err != nil || toks[2].Kind != TokInt || toks[2].Val != 9223372036854775807 || toks[2].Text != tc.lit {
				t.Errorf("%s: tokens %v, error %v", tc.lit, toks, err)
			}
			continue
		}
		want := "t.mj:2:3: integer literal " + tc.lit + " overflows int64"
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %s", tc.lit, err, want)
		}
	}
}

// TestLexNonASCII pins what the byte-offset lexer must get right off the
// ASCII fast path: columns count runes, an invalid byte is one U+FFFD one
// column wide, and a digit outside ASCII may continue an identifier but is
// not a number.
func TestLexNonASCII(t *testing.T) {
	toks, err := LexAll("t.mj", "größe_٣ /* 漢字 */ é1\n// ключ\n\u00a0π")
	if err != nil {
		t.Fatal(err)
	}
	want := []Token{
		{Kind: TokIdent, Text: "größe_٣", Line: 1, Col: 1},
		{Kind: TokIdent, Text: "é1", Line: 1, Col: 18},
		{Kind: TokIdent, Text: "π", Line: 3, Col: 2},
		{Kind: TokEOF, Line: 3, Col: 3},
	}
	if len(toks) != len(want) {
		t.Fatalf("tokens %v, want %v", toks, want)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Errorf("token %d = %+v, want %+v", i, toks[i], want[i])
		}
	}
	for src, want := range map[string]string{
		"é \xff":              "t.mj:1:3: unexpected character \"\ufffd\"",
		"/* \xe6\xbc */ \x80": "t.mj:1:10: unexpected character \"\ufffd\"",
		"x = ٣;":              `t.mj:1:5: unexpected character "٣"`,
	} {
		if _, err := LexAll("t.mj", src); err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %s", src, err, want)
		}
	}
}

func TestLexComments(t *testing.T) {
	src := `
// line comment
x /* block
comment */ y
`
	toks, err := LexAll("t.mj", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[0].Text != "x" || toks[1].Text != "y" {
		t.Fatalf("comments not skipped: %v", toks)
	}
}

func TestLexUnterminatedBlockComment(t *testing.T) {
	if _, err := LexAll("t.mj", "x /* never closed"); err == nil {
		t.Fatal("expected unterminated comment error")
	}
}

func TestLexBadChar(t *testing.T) {
	if _, err := LexAll("t.mj", "x # y"); err == nil {
		t.Fatal("expected error for bad character")
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := LexAll("t.mj", "a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("a at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("b at %d:%d, want 2:3", toks[1].Line, toks[1].Col)
	}
}

func TestSyntaxErrorFormat(t *testing.T) {
	_, err := LexAll("file.mj", "@")
	if err == nil {
		t.Fatal("expected error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.File != "file.mj" || se.Line != 1 {
		t.Errorf("position = %s:%d", se.File, se.Line)
	}
}
