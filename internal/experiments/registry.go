package experiments

import (
	"fmt"
	"sort"
	"sync"

	"sendforget/internal/runtime"
)

// Runner executes one experiment with its defaults literal on the given
// backend. The empty kind selects each experiment's historical backend: seq
// for the simulations, the cluster for loss-stress. The analytical
// experiments ignore it.
type Runner func(kind runtime.EngineKind) (*Report, error)

var registry struct {
	once sync.Once
	m    map[string]Runner
	ids  []string
}

// Registry maps experiment ids (as listed in DESIGN.md) to runners that pass
// each experiment its defaults literal. cmd/sfexperiments iterates it. The
// map is built once and shared; callers must not mutate it.
func Registry() map[string]Runner {
	registry.once.Do(buildRegistry)
	return registry.m
}

func buildRegistry() {
	registry.m = map[string]Runner{
		"fig6.1":  func(k runtime.EngineKind) (*Report, error) { return Fig61(fig61Defaults(), k) },
		"fig6.2":  func(runtime.EngineKind) (*Report, error) { return Fig62(fig62Defaults()) },
		"tab6.3":  func(runtime.EngineKind) (*Report, error) { return Tab63(tab63Defaults()) },
		"fig6.3":  func(k runtime.EngineKind) (*Report, error) { return Fig63(fig63Defaults(), k) },
		"fig6.4":  func(k runtime.EngineKind) (*Report, error) { return Fig64(fig64Defaults(), k) },
		"cor6.14": func(k runtime.EngineKind) (*Report, error) { return Cor614(cor614Defaults(), k) },
		"lem6.6":  func(k runtime.EngineKind) (*Report, error) { return Lem66(lem66Defaults(), k) },
		"lem7.5":  func(runtime.EngineKind) (*Report, error) { return Lem75(lem75Defaults()) },
		"lem7.6":  func(k runtime.EngineKind) (*Report, error) { return Lem76(lem76Defaults(), k) },
		"lem7.8":  func(runtime.EngineKind) (*Report, error) { return Lem78(lem78Defaults()) },
		"lem7.9":  func(k runtime.EngineKind) (*Report, error) { return Lem79(lem79Defaults(), k) },
		"tab7.4":  func(runtime.EngineKind) (*Report, error) { return Tab74(tab74Defaults()) },
		"lem7.15": func(k runtime.EngineKind) (*Report, error) { return Lem715(lem715Defaults(), k) },
		"base1":   func(k runtime.EngineKind) (*Report, error) { return Baselines(baselinesDefaults(), k) },
		"rw1":     func(k runtime.EngineKind) (*Report, error) { return RW1(rw1Defaults(), k) },
		"churn1":  func(k runtime.EngineKind) (*Report, error) { return Churn1(churnDefaults(), k) },
		"abl1":    func(k runtime.EngineKind) (*Report, error) { return AblationBurst(ablationBurstDefaults(), k) },
		"abl2":    func(k runtime.EngineKind) (*Report, error) { return AblationDL(ablationDLDefaults(), k) },
		"abl3":    func(k runtime.EngineKind) (*Report, error) { return AblationOpt(ablationOptDefaults(), k) },
		"abl4": func(k runtime.EngineKind) (*Report, error) {
			return AblationNonuniform(ablationNonuniformDefaults(), k)
		},
		"loss-stress": func(k runtime.EngineKind) (*Report, error) { return LossStress(lossStressDefaults(), k) },
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
