package markov

import "fmt"

// IsIrreducible reports whether the chain's positive-transition graph is
// strongly connected (one SCC spanning all states) — condition (1) of the
// ergodic theorem quoted in Section 3.2 and the property Lemma 7.1 proves
// for the global S&F chain.
func IsIrreducible(c *CSR) bool {
	n := c.N()
	if n == 0 {
		return false
	}
	return len(sccs(c)) == 1
}

// sccs returns the strongly connected components of the positive-transition
// graph, using an iterative Tarjan so large degree-MC state spaces cannot
// overflow the goroutine stack.
func sccs(c *CSR) [][]int {
	n := c.N()
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		stack  []int
		order  = 0
		result [][]int
	)

	type frame struct {
		v  int
		ni int // next slot of v's row to explore
	}
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		callStack := []frame{{v: root}}
		index[root] = order
		low[root] = order
		order++
		stack = append(stack, root)
		onStack[root] = true
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			cols, probs := c.Row(f.v)
			if f.ni < len(cols) {
				k := f.ni
				f.ni++
				if probs[k] == 0 {
					continue
				}
				w := int(cols[k])
				if index[w] == unvisited {
					index[w] = order
					low[w] = order
					order++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{v: w})
				} else if onStack[w] {
					if index[w] < low[f.v] {
						low[f.v] = index[w]
					}
				}
				continue
			}
			// Post-order: pop.
			v := f.v
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := callStack[len(callStack)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				result = append(result, comp)
			}
		}
	}
	return result
}

// Period returns the period of an irreducible chain: the gcd of the lengths
// of all directed cycles. A period of 1 means aperiodic — condition (2) of
// the ergodic theorem. It returns an error if the chain is not irreducible.
func Period(c *CSR) (int, error) {
	if !IsIrreducible(c) {
		return 0, fmt.Errorf("markov: period undefined for reducible chain")
	}
	n := c.N()
	level := make([]int, n)
	seen := make([]bool, n)
	level[0] = 0
	seen[0] = true
	queue := []int{0}
	g := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		cols, probs := c.Row(u)
		for k, col := range cols {
			if probs[k] == 0 {
				continue
			}
			v := int(col)
			if !seen[v] {
				seen[v] = true
				level[v] = level[u] + 1
				queue = append(queue, v)
				continue
			}
			d := level[u] + 1 - level[v]
			if d < 0 {
				d = -d
			}
			g = gcd(g, d)
		}
	}
	if g == 0 {
		// A strongly connected graph with >= 2 states always closes some
		// cycle; g == 0 can only happen for the single-state chain with a
		// self-loop, which has period 1.
		return 1, nil
	}
	return g, nil
}

// IsErgodic reports whether the chain is irreducible and aperiodic, i.e.
// has a unique stationary distribution reached from every start (the
// fundamental theorem quoted in Section 3.2).
func IsErgodic(c *CSR) bool {
	if !IsIrreducible(c) {
		return false
	}
	p, err := Period(c)
	return err == nil && p == 1
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
