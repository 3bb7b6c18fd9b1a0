// Package substrateplant is the substrate boundary's plant: code outside
// internal/runtime building the sharded engine directly instead of through
// runtime.New, which would make the engine choice a branch of the caller's
// instead of a construction-time parameter. The concrete constructors are
// unexported, so the direct construction does not type-check.
package substrateplant

import (
	"sendforget/internal/protocol"
	"sendforget/internal/runtime"
)

// Build makes an overlay of n nodes.
func Build(n int, core protocol.CoreFactory) (runtime.Substrate, error) {
	if n < 1000 {
		return runtime.New(runtime.Config{Engine: runtime.EngineSharded, N: n, NewCore: core})
	}
	return runtime.newSharded(runtime.Config{N: n, NewCore: core}) // the planted direct construction
}
