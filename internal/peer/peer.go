// Package peer defines node identifiers shared by every subsystem.
//
// The paper models ids abstractly ("for example, IP addresses and ports").
// In the simulator and the analysis code an id is a dense small integer so
// that views, graphs, and histograms can be indexed directly; the UDP
// transport (internal/transport) maps ids to real addresses.
package peer

import (
	"fmt"
	"sort"
)

// ID identifies a node. IDs handed to the simulator are dense integers in
// [0, n). The zero value is a valid id; the sentinel Nil marks an empty view
// entry (the paper's bottom symbol).
type ID int32

// Nil is the empty view entry marker.
const Nil ID = -1

// IsNil reports whether the id is the empty-entry sentinel.
func (id ID) IsNil() bool { return id == Nil }

// String renders the id; Nil renders as the bottom symbol used in the paper.
func (id ID) String() string {
	if id == Nil {
		return "⊥"
	}
	return fmt.Sprintf("n%d", int32(id))
}

// Range returns the ids 0..n-1. It is a convenience for experiment setup.
func Range(n int) []ID {
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = ID(i)
	}
	return ids
}

// Sort sorts ids ascending in place.
func Sort(ids []ID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
