package minijava

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestTokenLayout pins the token to at most three words with no pointer:
// LexAll's stream, sized at two tokens per five source bytes, is the front
// end's largest array, and an array of pointer-free elements is never
// scanned by the Go collector. A token's text is sliced from the source on
// demand.
func TestTokenLayout(t *testing.T) {
	if n := unsafe.Sizeof(Token{}); n > 24 {
		t.Errorf("Token is %d bytes, want at most 24", n)
	}
	typ := reflect.TypeFor[Token]()
	for i := range typ.NumField() {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int32, reflect.Uint8:
		default:
			t.Errorf("Token.%s is a %s, want a fixed-size integer", f.Name, f.Type)
		}
	}
}

func TestLexBasics(t *testing.T) {
	src := "class Foo { int x; }"
	toks, err := LexAll("t.mj", src)
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
		if toks[i].Kind != w.kind || toks[i].Text(src) != w.text {
			t.Errorf("token %d = (%v, %q), want (%v, %q)", i, toks[i].Kind, toks[i].Text(src), w.kind, w.text)
		}
	}
}

func TestLexOperators(t *testing.T) {
	src := "== != <= >= && || < > = ! + - * / %"
	toks, err := LexAll("t.mj", src)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"==", "!=", "<=", ">=", "&&", "||", "<", ">", "=", "!", "+", "-", "*", "/", "%"}
	for i, w := range want {
		if toks[i].Text(src) != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].Text(src), w)
		}
	}
}

func TestLexIntLiteral(t *testing.T) {
	src := "12345 0"
	toks, err := LexAll("t.mj", src)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Val(src) != 12345 || toks[1].Val(src) != 0 {
		t.Errorf("int values = %d %d", toks[0].Val(src), toks[1].Val(src))
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
		src := "x =\n  " + tc.lit + ";"
		toks, err := LexAll("t.mj", src)
		if tc.ok {
			if err != nil || toks[2].Kind != TokInt || toks[2].Val(src) != 9223372036854775807 || toks[2].Text(src) != tc.lit {
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
	src := "größe_٣ /* 漢字 */ é1\n// ключ\n\u00a0π"
	toks, err := LexAll("t.mj", src)
	if err != nil {
		t.Fatal(err)
	}
	type tok struct {
		kind      TokenKind
		text      string
		line, col int32
	}
	want := []tok{
		{TokIdent, "größe_٣", 1, 1},
		{TokIdent, "é1", 1, 18},
		{TokIdent, "π", 3, 2},
		{TokEOF, "", 3, 3},
	}
	if len(toks) != len(want) {
		t.Fatalf("tokens %v, want %v", toks, want)
	}
	for i := range want {
		if got := (tok{toks[i].Kind, toks[i].Text(src), toks[i].Line, toks[i].Col}); got != want[i] {
			t.Errorf("token %d = %+v, want %+v", i, got, want[i])
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
	if len(toks) != 3 || toks[0].Text(src) != "x" || toks[1].Text(src) != "y" {
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
