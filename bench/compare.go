package main

import (
	"fmt"
	"io"
)

// side is one file's view of one workload: per end-to-end metric, the samples
// of all its untraced runs pooled (segment values, set-up repetitions, one
// peak RSS per run), and the failure counts.
type side struct {
	samples           map[string][]float64
	attempted, failed int64
	runs              int
}

func sidesOf(f *File) map[string]*side {
	out := make(map[string]*side)
	for _, r := range f.Runs {
		if r.Traced {
			continue
		}
		s := out[r.Workload]
		if s == nil {
			s = &side{samples: make(map[string][]float64)}
			out[r.Workload] = s
		}
		s.runs++
		s.attempted += r.Attempted
		s.failed += r.Failed
		for _, m := range endToEnd {
			st := r.Metrics[m.Name]
			if len(st.Samples) > 0 {
				s.samples[m.Name] = append(s.samples[m.Name], st.Samples...)
			} else {
				s.samples[m.Name] = append(s.samples[m.Name], st.Value)
			}
		}
	}
	return out
}

// verdict classifies one metric of one workload.
func verdict(m metricDef, oldS, newS Stat) string {
	if oldS.Value == 0 {
		return "unresolved"
	}
	// How much worse the new median is, as a share of the old.
	worse := (newS.Value - oldS.Value) / oldS.Value
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return "REGRESSION"
	case (oldS.spread() > m.Bound || newS.spread() > m.Bound) && !allBetter(m, oldS.Samples, newS.Samples):
		// The runs disagree with themselves by more than the bound: the
		// medians being close proves nothing.
		return "unresolved"
	}
	return "ok"
}

// allBetter reports whether every new sample reads better than every old one.
func allBetter(m metricDef, oldV, newV []float64) bool {
	if len(oldV) == 0 || len(newV) == 0 {
		return false
	}
	o, n := sorted(oldV), sorted(newV)
	if m.Better == "higher" {
		return n[0] > o[len(o)-1]
	}
	return n[len(n)-1] < o[0]
}

// compareFiles prints, per workload and end-to-end metric, both medians with
// quartiles and the ratio new/old. It returns 1 when a new median is worse
// than the old by more than the metric's bound or when the share of failed
// operations rose.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	oldF, err := readFile(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	newF, err := readFile(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	oldSides, newSides := sidesOf(oldF), sidesOf(newF)
	status := 0
	compared := 0
	for _, w := range workloads {
		o, n := oldSides[w.Name], newSides[w.Name]
		if o == nil || n == nil {
			continue
		}
		compared++
		fmt.Fprintf(stdout, "%s (old: %d runs, new: %d runs)\n", w.Name, o.runs, n.runs)
		fmt.Fprintf(stdout, "  %-22s %-6s %14s %27s %14s %27s %18s %7s  %s\n",
			"metric", "unit", "old median", "[q1, q3]", "new median", "[q1, q3]", "new/old (base old)", "bound", "verdict")
		for _, m := range endToEnd {
			was, is := statOf(m.Unit, o.samples[m.Name]), statOf(m.Unit, n.samples[m.Name])
			v := verdict(m, was, is)
			if v == "REGRESSION" {
				status = 1
			}
			ratio := 0.0
			if was.Value != 0 {
				ratio = is.Value / was.Value
			}
			fmt.Fprintf(stdout, "  %-22s %-6s %14.6g [%12.6g,%12.6g] %14.6g [%12.6g,%12.6g] %18.4f %6.0f%%  %s\n",
				m.Name, m.Unit, was.Value, was.Q1, was.Q3, is.Value, is.Q1, is.Q3, ratio, 100*m.Bound, v)
		}
		oldShare := float64(o.failed) / float64(max(o.attempted, 1))
		newShare := float64(n.failed) / float64(max(n.attempted, 1))
		v := "ok"
		if newShare > oldShare {
			v, status = "REGRESSION", 1
		}
		fmt.Fprintf(stdout, "  %-22s %-6s %14.6g %27s %14.6g %27s %18s %7s  %s\n",
			failedOpsShare, "ratio", oldShare, fmt.Sprintf("(%d of %d)", o.failed, o.attempted),
			newShare, fmt.Sprintf("(%d of %d)", n.failed, n.attempted), "", "any", v)
	}
	if compared == 0 {
		fmt.Fprintln(stderr, "bench: the two files share no workload")
		return 2
	}
	return status
}
