package runtime

import "sendforget/internal/metrics"

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

// DefaultShardSize is the automatic shard geometry, for the test that pins it.
var DefaultShardSize = defaultShardSize
