package bytecode

// BuildGraph is the graph half of a Body build, for the tests that compare
// its shape and count its allocations.
func BuildGraph(m *Method) (*Graph, error) {
	g := &Graph{}
	if err := g.build(m, make([]int32, len(m.Code))); err != nil {
		return nil, err
	}
	return g, nil
}

// SetGraphHook makes every graph build report its method to f (nil: to
// nobody). Tests that set it must not run in parallel.
func SetGraphHook(f func(*Method)) { graphHook = f }

// NewBody builds m's record against p's symbol table without consulting or
// filling p's records: what a fresh build from the code as it is now gives.
func NewBody(p *Program, m *Method) *Body { return newBody(p.Symbols(), m) }
