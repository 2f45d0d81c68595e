package pipeline

import "rex/internal/obs"

// Streaming-engine metrics. The snapshot histogram times full
// decomposition+picture assembly, the operation whose latency bounds
// how fresh a spike report can be.
var (
	mEvents = obs.NewCounter("rex_pipeline_events_total",
		"Events ingested by the streaming pipeline.")
	mEvicted = obs.NewCounter("rex_pipeline_evicted_total",
		"Events evicted as the window slid past them.")
	mWindowEvents = obs.NewGauge("rex_pipeline_window_events",
		"Events currently inside the sliding analysis window.")
	mSnapshots = obs.NewCounterVec("rex_pipeline_snapshots_total", "trigger",
		"Analysis snapshots emitted, by trigger (tick, spike, final).")
	mSpikes = obs.NewCounter("rex_pipeline_spikes_total",
		"Rate spikes detected (median + k*MAD crossings reported once each).")
	mSnapshotSeconds = obs.NewHistogram("rex_pipeline_snapshot_seconds",
		"Latency of full snapshot assembly (decomposition + TAMP picture).", nil)
	mSeeded = obs.NewCounter("rex_pipeline_seeded_total",
		"Checkpoint seed events applied to table state during recovery.")
	mSeedStale = obs.NewCounter("rex_pipeline_seed_stale_total",
		"Checkpoint seeds dropped because a live event already touched the route key during recovery.")
	mShards = obs.NewGauge("rex_shard_count",
		"Prefix shards partitioning the TAMP shadow.")
	mShardRouteOps = obs.NewCounter("rex_shard_route_ops_total",
		"Routing changes routed to prefix-sharded TAMP shadows.")
	mShardFlushes = obs.NewCounter("rex_shard_flushes_total",
		"Shard routeOp batches flushed from the coordinator to workers.")
	mWorkers = obs.NewGauge("rex_worker_count",
		"Worker goroutines executing shard work (1 = inline sequential path).")
	mWorkerTasks = obs.NewCounter("rex_worker_tasks_total",
		"Tasks submitted to the analysis worker pool (shard batches).")
	mIntakeOffered = obs.NewCounter("rex_intake_offered_total",
		"Events offered to the intake queue by collector sessions.")
	mIntakeShed = obs.NewCounter("rex_intake_shed_total",
		"Events shed by the shed policy: at a full intake queue, or unjournaled at a full pipeline buffer while the intake closes.")
	mIntakeJournalErrs = obs.NewCounter("rex_intake_journal_errors_total",
		"Journal append failures swallowed by the intake drainer.")
	mIntakeBatches = obs.NewCounter("rex_intake_batches_total",
		"Event batches the block-policy drainer handed to the pipeline.")
	mIntakeBatchEvents = obs.NewCounter("rex_intake_batch_events_total",
		"Events delivered inside intake batches.")
)
