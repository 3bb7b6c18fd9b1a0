package analyzers

import (
	"sendforget/internal/analyzers/framework"
)

// Shardconfine enforces the sharded engine's ownership discipline, the one
// -race cannot see at 100k–1M nodes: fields annotated
//
//	//vet:confined shard — owned by the worker processing the field's
//	    shard index between barrier phases; also touchable while holding
//	    the engine's gate token for real (no phase is running then).
//	//vet:confined gate  — touchable only while provably holding the gate
//	    token; never from inside a barrier phase.
//
// An access to an annotated field passes if the happens-before engine can
// prove one of: the enclosing function runs on a freshly constructed,
// not-yet-shared instance (constructors); the gate token is held in earnest
// (the public API surface); or — for shard mode — the access is the base of
// an index expression whose index derives, inside that one function body,
// from the shard-steal counter: through locals, arithmetic, conversions and
// call results, never through a parameter. The function that steals an index
// spends it; the sharded engine hands its phase bodies the *shard the index
// names, and what they may touch is then the compiler's to check (the
// shardtype fixture is the plant that no longer compiles). Everything else
// is a confinement violation, reported with its barrier-phase context so the
// reader knows which side of the protocol was broken.
var Shardconfine = &framework.Analyzer{
	Name: "shardconfine",
	Doc:  "//vet:confined fields are only touched by their owning shard's worker or under the gate token",
	Run:  runShardconfine,
}

func runShardconfine(pass *framework.Pass) error {
	res := pass.Prog.Concurrency()
	path := pass.Pkg.Path()
	for _, a := range res.Accesses {
		cf := res.Confined[a.Obj]
		if cf == nil || a.Pkg.Path != path {
			continue
		}
		if a.Fresh || a.HoldsToken(res) {
			continue
		}
		if cf.Mode == "shard" && a.Confined {
			continue
		}
		verb := "read of"
		if a.Write {
			verb = "write to"
		}
		if a.InBarrierPhase(res) {
			if cf.Mode == "gate" {
				pass.Reportf(a.Pos,
					"%s gate-confined field %s in %s from inside a barrier phase: the dispatcher holds the gate, the phase worker does not",
					verb, a.Obj.Name(), a.FnLabel)
			} else {
				pass.Reportf(a.Pos,
					"%s shard-confined field %s in %s inside a barrier phase but not provably at the owning worker's shard index",
					verb, a.Obj.Name(), a.FnLabel)
			}
			continue
		}
		pass.Reportf(a.Pos,
			"%s %s-confined field %s in %s outside any barrier phase without holding the gate token",
			verb, cf.Mode, a.Obj.Name(), a.FnLabel)
	}
	return nil
}
