// The held-lock engine: the one sync.Mutex/RWMutex recogniser and the one
// CFG held-lock dataflow, shared by the happens-before engine (which needs
// the locks held on every path) and lockreach (which needs the locks held
// on any path).

package framework

import (
	"go/ast"
	"go/types"
)

// LockMode grades how strongly a held lock key excludes other holders.
// ModeExcl is a real exclusive hold (mutex Lock, token channel, once body);
// ModeRead is a shared RLock hold; ModeBarrier is inherited across a
// dispatch barrier and excludes only non-barrier holders.
type LockMode int

const (
	ModeBarrier LockMode = iota
	ModeRead
	ModeExcl
)

// Lockset maps lock key objects (mutex fields, token channel fields,
// sync.Once fields) to the mode they are held in.
type Lockset map[types.Object]LockMode

func (l Lockset) clone() Lockset {
	c := make(Lockset, len(l))
	for k, v := range l {
		c[k] = v
	}
	return c
}

// LockMeet selects how the held-lock dataflow joins converging paths.
type LockMeet int

const (
	// MustHold intersects: a key survives a join only if every path holds
	// it, in the weakest mode any path holds it in. The race proof uses
	// it — a lock taken on one branch protects
	// nothing after the join.
	MustHold LockMeet = iota
	// MayHold unions: a key survives if any path holds it, in the strongest
	// mode. The blocking check uses it — a lock taken on one branch still
	// deadlocks a blocking call after the join.
	MayHold
)

// intersectLocks is the MustHold meet, also used across call sites: a
// callee holds a key only if every caller holds it.
func intersectLocks(a, b Lockset) Lockset {
	out := make(Lockset)
	for k, ma := range a {
		if mb, ok := b[k]; ok {
			out[k] = min(ma, mb)
		}
	}
	return out
}

func unionLocks(a, b Lockset) Lockset {
	out := a.clone()
	for k, mb := range b {
		if ma, ok := out[k]; !ok || mb > ma {
			out[k] = mb
		}
	}
	return out
}

func equalLocks(a, b Lockset) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// ReplayHeldLocks is the held-lock dataflow. It solves the forward problem
// over cfg — entry seeds the Entry block, ops applies one node's lock
// operations to a set in place, meet joins converging paths — and then
// replays every reachable block, calling visit with each node and the set
// held just before it. visit must clone the set to keep it.
func ReplayHeldLocks(cfg *CFG, entry Lockset, meet LockMeet, ops func(Lockset, ast.Node), visit func(ast.Node, Lockset)) {
	join := intersectLocks
	if meet == MayHold {
		join = unionLocks
	}
	facts := ForwardDataflow(cfg, entry.clone(),
		func(b *Block, f Lockset) Lockset {
			out := f.clone()
			for _, n := range b.Nodes {
				ops(out, n)
			}
			return out
		},
		join, equalLocks)
	for _, b := range cfg.Blocks {
		f, ok := facts[b]
		if !ok {
			continue // unreachable
		}
		held := f.clone()
		for _, n := range b.Nodes {
			visit(n, held)
			ops(held, n)
		}
	}
}

// MutexOp matches sync.Mutex / sync.RWMutex lock-family calls on a named
// field or variable, keyed instance-insensitively by the declared object.
func MutexOp(info *types.Info, call *ast.CallExpr) (obj types.Object, mode LockMode, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, 0, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock":
		mode, acquire = ModeExcl, sel.Sel.Name == "Lock"
	case "RLock", "RUnlock":
		mode, acquire = ModeRead, sel.Sel.Name == "RLock"
	default:
		return nil, 0, false, false
	}
	obj = refObject(info, sel.X)
	if obj == nil {
		return nil, 0, false, false
	}
	if !IsSyncNamed(obj.Type(), "Mutex") && !IsSyncNamed(obj.Type(), "RWMutex") {
		return nil, 0, false, false
	}
	return obj, mode, acquire, true
}

// applyMutexOp applies call to the set if it is a mutex operation: an
// acquire holds the key in the call's mode, a release drops a key held in
// that mode.
func (l Lockset) applyMutexOp(info *types.Info, call *ast.CallExpr) {
	if obj, mode, acquire, ok := MutexOp(info, call); ok {
		if acquire {
			l[obj] = mode
		} else if l[obj] == mode {
			delete(l, obj)
		}
	}
}

// MutexOps applies the mutex operations one CFG node executes to held, in
// place. Goroutine and literal bodies run elsewhere; deferred releases are
// deliberately ignored — a mutex released only under defer is held to
// function exit.
func MutexOps(info *types.Info, held Lockset, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt, *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			held.applyMutexOp(info, n)
		}
		return true
	})
}

// IsSyncNamed reports whether t (possibly behind a pointer) is the named
// sync.<name> type.
func IsSyncNamed(t types.Type, name string) bool {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	n, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	o := n.Obj()
	return o.Pkg() != nil && o.Pkg().Path() == "sync" && o.Name() == name
}
