package core

import (
	"go/parser"
	"go/token"
	"strconv"
	"testing"
)

// TestTransferImports pins the seam between the transfer functions and the
// engine that iterates them: transfer.go sees the program representation
// and the integer domain, and nothing a worklist, a budget or a deadline
// would need — so whatever checks or explains a verdict can reuse it
// without inheriting the fixed point.
func TestTransferImports(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "transfer.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{
		"satbelim/internal/bytecode": true,
		"satbelim/internal/cfg":      true,
		"satbelim/internal/intval":   true,
	}
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); !allowed[path] {
			t.Errorf("transfer.go imports %s; the transfer functions may depend only on bytecode, cfg and intval", path)
		}
	}
}
