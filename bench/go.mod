// The benchmark is a module of its own so that it carries its own build
// file; the replace directive points at the repository it measures, and the
// sendforget/ path prefix is what lets it import sendforget/internal/...
module sendforget/bench

go 1.22

require sendforget v0.0.0

replace sendforget => ../
