package minijava_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"satbelim/internal/minijava"
	"satbelim/internal/progen"
	"satbelim/internal/workloads"
)

// tokenStreamGolden is the sha256 TestTokenStreamGolden computes. It was
// taken with this file unchanged on the []rune lexer the slicing one
// replaced (EXPERIMENTS.md, PR 26), so it pins positions, texts, values and
// error messages — invalid UTF-8 included — to that lexer's.
const tokenStreamGolden = "7015929cb323a4c1204872c9e7e89079672a99ab932f39dff0dc26deb697a3e6"

// TestTokenStreamGolden hashes (Kind, Text, Val, Line, Col) of every token,
// or the error that ended the stream, over the six workloads, the benchmark's
// 12 generated programs and the parser fuzz corpus.
func TestTokenStreamGolden(t *testing.T) {
	var srcs []string
	for _, w := range workloads.All() {
		srcs = append(srcs, w.Source)
	}
	for i := int64(0); i < 12; i++ {
		srcs = append(srcs, progen.Generate(20050320+i, progen.CampaignConfig()))
	}
	srcs = append(srcs, fuzzSeeds()...)

	h := sha256.New()
	tokens, failed := 0, 0
	for i, src := range srcs {
		toks, err := minijava.LexAll("golden.mj", src)
		fmt.Fprintf(h, "source %d\n", i)
		if err != nil {
			failed++
			fmt.Fprintf(h, "error %s\n", err)
			continue
		}
		tokens += len(toks)
		for _, tok := range toks {
			val := int64(0)
			if tok.Kind == minijava.TokInt {
				val = tok.Val(src)
			}
			fmt.Fprintf(h, "%d %q %d %d %d\n", tok.Kind, tok.Text(src), val, tok.Line, tok.Col)
		}
	}
	if failed == 0 || failed == len(srcs) {
		t.Errorf("%d of %d sources failed to lex; the corpus should cover both outcomes", failed, len(srcs))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != tokenStreamGolden {
		t.Errorf("token stream hash %s, want %s (%d sources, %d tokens)", got, tokenStreamGolden, len(srcs), tokens)
	}
}
