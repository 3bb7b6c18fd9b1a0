package experiments

import (
	"fmt"
	"sort"
	"sync"

	"sendforget/internal/runtime"
)

// Runner executes one experiment with its default parameters on the given
// backend. The empty kind selects each experiment's historical one: seq for
// the simulations, the cluster for loss-stress. The analytical experiments
// ignore it.
type Runner func(kind runtime.EngineKind) (*Report, error)

var registry struct {
	once sync.Once
	m    map[string]Runner
	ids  []string
}

// Registry maps experiment ids (as listed in DESIGN.md) to default-parameter
// runners. cmd/sfexperiments iterates it. The map is built once and shared;
// callers must not mutate it.
func Registry() map[string]Runner {
	registry.once.Do(buildRegistry)
	return registry.m
}

func buildRegistry() {
	registry.m = map[string]Runner{
		"fig6.1":      func(k runtime.EngineKind) (*Report, error) { return Fig61(Fig61Params{}, k) },
		"fig6.2":      func(runtime.EngineKind) (*Report, error) { return Fig62(Fig62Params{}) },
		"tab6.3":      func(runtime.EngineKind) (*Report, error) { return Tab63(Tab63Params{}) },
		"fig6.3":      func(k runtime.EngineKind) (*Report, error) { return Fig63(Fig63Params{}, k) },
		"fig6.4":      func(k runtime.EngineKind) (*Report, error) { return Fig64(Fig64Params{}, k) },
		"cor6.14":     func(k runtime.EngineKind) (*Report, error) { return Cor614(Cor614Params{}, k) },
		"lem6.6":      func(k runtime.EngineKind) (*Report, error) { return Lem66(Lem66Params{}, k) },
		"lem7.5":      func(runtime.EngineKind) (*Report, error) { return Lem75(Lem75Params{}) },
		"lem7.6":      func(k runtime.EngineKind) (*Report, error) { return Lem76(Lem76Params{}, k) },
		"lem7.8":      func(runtime.EngineKind) (*Report, error) { return Lem78(Lem78Params{}) },
		"lem7.9":      func(k runtime.EngineKind) (*Report, error) { return Lem79(Lem79Params{}, k) },
		"tab7.4":      func(runtime.EngineKind) (*Report, error) { return Tab74(Tab74Params{}) },
		"lem7.15":     func(k runtime.EngineKind) (*Report, error) { return Lem715(Lem715Params{}, k) },
		"base1":       func(k runtime.EngineKind) (*Report, error) { return Baselines(BaselinesParams{}, k) },
		"rw1":         func(k runtime.EngineKind) (*Report, error) { return RW1(RW1Params{}, k) },
		"churn1":      func(k runtime.EngineKind) (*Report, error) { return Churn1(ChurnParams{}, k) },
		"abl1":        func(k runtime.EngineKind) (*Report, error) { return AblationBurst(AblationBurstParams{}, k) },
		"abl2":        func(k runtime.EngineKind) (*Report, error) { return AblationDL(AblationDLParams{}, k) },
		"abl3":        func(k runtime.EngineKind) (*Report, error) { return AblationOpt(AblationOptParams{}, k) },
		"abl4":        func(k runtime.EngineKind) (*Report, error) { return AblationNonuniform(AblationNonuniformParams{}, k) },
		"loss-stress": func(k runtime.EngineKind) (*Report, error) { return LossStress(LossStressParams{}, k) },
	}
	registry.ids = make([]string, 0, len(registry.m))
	for id := range registry.m {
		registry.ids = append(registry.ids, id)
	}
	sort.Strings(registry.ids)
}

// IDs returns the registered experiment ids in sorted order. The slice is a
// copy; callers may reorder it.
func IDs() []string {
	registry.once.Do(buildRegistry)
	return append([]string(nil), registry.ids...)
}

// Run executes the experiment with the given id on the given backend.
func Run(id string, kind runtime.EngineKind) (*Report, error) {
	runner, ok := Registry()[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, IDs())
	}
	return runner(kind)
}
