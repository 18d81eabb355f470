// Package minijava implements the front end for the MiniJava-style source
// language used by this repository's workloads and examples: a lexer, a
// recursive-descent parser, and a type checker. The language is a small
// Java subset — classes with instance/static fields, constructors, static
// and instance methods, int/boolean/class/array types — chosen so that the
// bytecode it compiles to exercises exactly the instruction forms over
// which the CGO'05 barrier-elision analyses are defined.
package minijava

import (
	"fmt"
	"math"
	"unicode"
	"unicode/utf8"
)

// TokenKind identifies a lexical token class.
type TokenKind uint8

const (
	TokEOF TokenKind = iota
	TokIdent
	TokInt
	TokKeyword
	TokPunct
)

// Token is one lexical token: where its text lies in the source, and where
// it starts. It holds no pointer, so a token stream is one flat array that
// the Go collector does not scan; its text is sliced from the source on
// demand (Text), and an integer's value parsed from it (Val).
type Token struct {
	// Start and End are the byte offsets of the token's text in the source:
	// src[Start:End].
	Start, End int32
	Line, Col  int32
	Kind       TokenKind
}

// Text returns the token's text in src, the source it was lexed from.
func (t Token) Text(src string) string { return src[t.Start:t.End] }

// Val returns an integer token's value in src. The lexer has checked that
// the literal is decimal digits whose value fits an int64.
func (t Token) Val(src string) int64 {
	var v int64
	for i := t.Start; i < t.End; i++ {
		v = v*10 + int64(src[i]-'0')
	}
	return v
}

// describe renders the token for a parse error: "end of file", "integer 7"
// or its quoted text.
func (t Token) describe(src string) string {
	switch t.Kind {
	case TokEOF:
		return "end of file"
	case TokInt:
		return fmt.Sprintf("integer %d", t.Val(src))
	default:
		return fmt.Sprintf("%q", t.Text(src))
	}
}

var keywords = map[string]bool{
	"class": true, "static": true, "void": true, "int": true, "boolean": true,
	"if": true, "else": true, "while": true, "for": true, "return": true,
	"new": true, "this": true, "null": true, "true": true, "false": true,
	"print": true, "spawn": true, "length": true,
}

// Lexer splits MiniJava source text into tokens. It reads the source where
// it lies: pos is a byte offset, a token is a pair of offsets into src, and
// only bytes outside ASCII are decoded (an invalid one reads as U+FFFD,
// one column wide). Offsets are int32, so a source may be at most
// math.MaxInt32 bytes long.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int // counts runes, not bytes
	file string
}

// NewLexer returns a lexer over src; file is used in error positions.
func NewLexer(file, src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1, file: file}
}

// SyntaxError is a lexing or parsing failure with a source position.
type SyntaxError struct {
	File string
	Line int
	Col  int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%s:%d:%d: %s", e.File, e.Line, e.Col, e.Msg)
}

func (l *Lexer) errorf(line, col int, format string, args ...any) error {
	return &SyntaxError{File: l.file, Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// peek returns the rune at pos and its width in bytes (0, 0 at the end).
func (l *Lexer) peek() (rune, int) {
	if l.pos >= len(l.src) {
		return 0, 0
	}
	if c := l.src[l.pos]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[l.pos:])
}

// byteAt returns the byte k places after pos, 0 past the end.
func (l *Lexer) byteAt(k int) byte {
	if l.pos+k >= len(l.src) {
		return 0
	}
	return l.src[l.pos+k]
}

// advance steps over the rune peek returned.
func (l *Lexer) advance(r rune, width int) {
	l.pos += width
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		r, w := l.peek()
		switch {
		case unicode.IsSpace(r):
			l.advance(r, w)
		case r == '/' && l.byteAt(1) == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(l.peek())
			}
		case r == '/' && l.byteAt(1) == '*':
			line, col := l.line, l.col
			l.pos += 2
			l.col += 2
			for l.byteAt(0) != '*' || l.byteAt(1) != '/' {
				if l.pos >= len(l.src) {
					return l.errorf(line, col, "unterminated block comment")
				}
				l.advance(l.peek())
			}
			l.pos += 2
			l.col += 2
		default:
			return nil
		}
	}
	return nil
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if len(l.src) > math.MaxInt32 {
		return Token{}, l.errorf(1, 1, "source of %d bytes is longer than %d", len(l.src), math.MaxInt32)
	}
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	line, col, start := l.line, l.col, l.pos
	tok := func(kind TokenKind) Token {
		return Token{Kind: kind, Start: int32(start), End: int32(l.pos), Line: int32(line), Col: int32(col)}
	}
	if l.pos >= len(l.src) {
		return tok(TokEOF), nil
	}
	r, _ := l.peek()
	switch {
	case unicode.IsLetter(r) || r == '_':
		for r, w := l.peek(); unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'; r, w = l.peek() {
			l.advance(r, w)
		}
		if keywords[l.src[start:l.pos]] {
			return tok(TokKeyword), nil
		}
		return tok(TokIdent), nil
	case '0' <= r && r <= '9':
		var v int64
		overflow := false
		for c := l.byteAt(0); '0' <= c && c <= '9'; c = l.byteAt(0) {
			d := int64(c - '0')
			if v > (math.MaxInt64-d)/10 {
				overflow = true
			}
			v = v*10 + d
			l.pos++
			l.col++
		}
		if overflow {
			return Token{}, l.errorf(line, col, "integer literal %s overflows int64", l.src[start:l.pos])
		}
		return tok(TokInt), nil
	default:
		width := 0
		switch r {
		case '=', '!', '<', '>':
			width = 1
			if l.byteAt(1) == '=' {
				width = 2
			}
		case '&', '|':
			if l.byteAt(1) == byte(r) {
				width = 2
			}
		case '{', '}', '(', ')', '[', ']', ';', ',', '.', '+', '-', '*', '/', '%':
			width = 1
		}
		if width == 0 {
			return Token{}, l.errorf(line, col, "unexpected character %q", string(r))
		}
		l.pos += width
		l.col += width
		return tok(TokPunct), nil
	}
}

// LexAll tokenizes the whole input (including the trailing EOF token).
func LexAll(file, src string) ([]Token, error) {
	l := NewLexer(file, src)
	// Generated programs run 2.7 source bytes to the token and the
	// hand-written workloads 5 to 6; two tokens per five bytes holds the
	// densest of them without regrowing.
	out := make([]Token, 0, len(src)*2/5+1)
	for {
		tok, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, tok)
		if tok.Kind == TokEOF {
			return out, nil
		}
	}
}
