// Package atomicmix exercises the atomicmix analyzer: a word reached through
// the package-level sync/atomic functions can also be read or written
// plainly, and nothing but review stands in the way. The sanctioned repo
// pattern is a typed atomic (atomic.Int64), which makes the mix a compile
// error; the analyzer reports the function API wherever it appears.
package atomicmix

import (
	"sync"
	"sync/atomic"
)

type counter struct {
	mu sync.Mutex
	n  int64
	m  int64
}

// inc is what makes the mix possible: n is now "atomic" by convention only.
func (c *counter) inc() { atomic.AddInt64(&c.n, 1) } // want `atomic.AddInt64\(&c.n, ...\) leaves every plain access`

// read and write are the accesses the convention cannot stop; they are
// ordinary int64 operations and carry no finding of their own.
func (c *counter) read() int64 { return c.n }

func (c *counter) write(v int64) { c.n = v }

// A mutex around the plain side does not rescue the atomic side: inc never
// takes it.
func (c *counter) readLocked() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// touch only ever uses m plainly: no atomic access, no findings.
func (c *counter) touch() { c.m++ }

// Package-level variables mix the same way.
var hits int64

func bump() { atomic.AddInt64(&hits, 1) } // want `atomic.AddInt64\(&hits, ...\) leaves every plain access`

func peek() int64 { return hits }

// Loads, stores and swaps through a pointer variable are the same API.
func drain(p *int64) int64 {
	return atomic.SwapInt64(p, 0) // want `atomic.SwapInt64\(p, ...\)`
}

// typed is the sanctioned form: its methods live in sync/atomic too, but a
// plain access to the word does not compile.
type typed struct {
	n atomic.Int64
}

func (t *typed) inc() int64 { return t.n.Add(1) }

func (t *typed) read() int64 { return t.n.Load() }

// snapshot carries the reviewed escape hatch.
func (c *counter) snapshot() int64 {
	//lint:allow atomicmix generated struct, the field type cannot change
	return atomic.LoadInt64(&c.n)
}
