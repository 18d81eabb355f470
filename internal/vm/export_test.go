package vm

import "satbelim/internal/bytecode"

// TestHooks are the construction-time test switches (see hooks), spelled
// with exported names so the external test package can set them too.
type TestHooks struct {
	TierForceDeoptAfter int64
	ForceRawElide       bool
}

// NewWithHooks is New with test hooks set. It exists only in test builds:
// no production caller can construct a VM with them.
func NewWithHooks(p *bytecode.Program, cfg Config, h TestHooks) *VM {
	return newVM(p, cfg, hooks{tierForceDeoptAfter: h.TierForceDeoptAfter, forceRawElide: h.ForceRawElide})
}

// StepsExecuted is the base-instruction count so far — after a failed run,
// the step the failure surfaced at (a failed Run returns no Result).
func (v *VM) StepsExecuted() int64 { return v.steps }

// BoundariesSkipped is the number of quantum boundaries the run's turns did
// not visit (VM.horizon).
func (v *VM) BoundariesSkipped() int64 { return v.schedSkipped }

// FramesRecycled is the number of frames the run took from a frame pool.
func (v *VM) FramesRecycled() int64 { return v.framesRecycled() }
