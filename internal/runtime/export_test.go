package runtime

import (
	"unsafe"

	"sendforget/internal/metrics"
	"sendforget/internal/protocol"
	"sendforget/internal/transport"
)

// Network returns the cluster's in-memory network, for tests that take a
// node off it without removing the node.
func (c *Cluster) Network() *transport.Network { return c.net }

// ShardLedgers returns each shard's own traffic ledger, in shard order: what
// Traffic sums. Tests use it to hold every shard's verdict stream, not just
// their total, to the configured loss rate.
func ShardLedgers(sub Substrate) []metrics.Traffic {
	e := sub.(*ShardedCluster)
	<-e.gate
	defer func() { e.gate <- struct{}{} }()
	ledgers := make([]metrics.Traffic, len(e.shards))
	for k := range e.shards {
		ledgers[k] = e.shards[k].router.Traffic()
	}
	return ledgers
}

// ReplyRows returns every shard's row of mail set 1, the set the first
// deliver phase files replies into, in shard order. The rows are the
// engine's: a test reads them only while nothing ticks.
func ReplyRows(sub Substrate) []*protocol.Outbox {
	e := sub.(*ShardedCluster)
	rows := make([]*protocol.Outbox, len(e.shards))
	for k, j := range e.jobs[phaseDeliver] {
		rows[k] = j.out
	}
	return rows
}

// DefaultShardSize is the automatic shard geometry, for the test that pins it.
var DefaultShardSize = defaultShardSize

// ShardedNodeSize is the size of the sharded engine's per-node record.
const ShardedNodeSize = unsafe.Sizeof(shardedNode{})
