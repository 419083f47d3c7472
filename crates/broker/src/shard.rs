//! The shard abstraction: what one slice of a [`ShardedBroker`] must
//! support.
//!
//! Two families implement it:
//!
//! * [`FlatShard`] wraps any [`ConcurrentDeque`] — the paper's list and
//!   array deques, or a `Recorded<_>` wrapper for audited runs. Any
//!   number of producers and consumers may touch it concurrently;
//!   produce lands at the right end in chunk-atomic batches and consume
//!   drains the left end, so each shard serves FIFO.
//! * [`TieredShard`] wraps the two-level [`TieredDeque`]: a Chase–Lev
//!   private tier over the paper's list deque. Its push side is
//!   **single-owner** (the tier's safety contract), so the broker binds
//!   at most one producer to it ([`BrokerShard::PRODUCER_EXCLUSIVE`]);
//!   consumers go through the thief-safe steal path and the owner's
//!   buffered work is published by the death-flush on producer drop.
//!
//! [`ShardedBroker`]: crate::ShardedBroker

use dcas::HarrisMcas;
use dcas_deque::{ConcurrentDeque, ListDeque};
use dcas_workstealing::TieredDeque;

/// One shard of a [`ShardedBroker`](crate::ShardedBroker).
///
/// Produce operations append at the shard's *newest* end and consume
/// operations take from the *oldest* end, so a single shard serves its
/// values FIFO (cross-shard order is unspecified — that is the sharding
/// trade-off). `Err` returns from the produce side carry the rejected
/// values back (bounded shards at capacity: the broker's backpressure
/// signal).
pub trait BrokerShard<T: Send>: Send + Sync {
    /// Whether the produce side is single-owner. The broker hands out
    /// at most one [`Producer`](crate::Producer) per exclusive shard
    /// and routes that producer's traffic only to its own shard.
    const PRODUCER_EXCLUSIVE: bool;

    /// Appends `vals` in order at the newest end; `Err` hands back the
    /// rejected tail (bounded shard at capacity).
    fn produce_batch(&self, vals: Vec<T>) -> Result<(), Vec<T>>;

    /// Appends one value; `Err` hands it back.
    fn produce_one(&self, v: T) -> Result<(), T>;

    /// Takes the oldest value, or `None` if the shard is observed empty.
    fn consume_one(&self) -> Option<T>;

    /// Takes up to `max` of the oldest values, oldest first. Empty means
    /// the shard was observed empty (or a steal race was lost).
    fn consume_batch(&self, max: usize) -> Vec<T>;

    /// Re-inserts `v` at the *oldest* end so it is served next — the
    /// deque-powered requeue that keeps a retried job's priority.
    /// `Err(v)` means the shard cannot (exclusive shards: the steal end
    /// is take-only; bounded shards: full) and the caller must keep it.
    fn requeue_front(&self, v: T) -> Result<(), T>;

    /// Owner-side death-flush: publishes any privately buffered values
    /// (an exclusive shard's tier and mid-spill staging) so consumers
    /// can reach them, returning whatever could **not** be published
    /// (bounded shared level at capacity) for the caller to rescue.
    /// Flat shards buffer nothing and return empty.
    ///
    /// For an exclusive shard this is owner-only, like the push side.
    fn flush_local(&self) -> Vec<T> {
        Vec::new()
    }

    /// Thread-safe insert used by rescue and rebalance parking: unlike
    /// the produce side (owner-only on exclusive shards), **any** thread
    /// may call this. Values land at the newest end; `Err` hands back
    /// what a bounded shard rejected.
    ///
    /// Flat shards alias the produce path; exclusive shards bypass the
    /// owner-private tier and insert straight into the shared
    /// linearizable level (the size hint lags, which the tier tolerates
    /// by design — a stale hint costs one early spill or restock).
    fn rescue_publish(&self, vals: Vec<T>) -> Result<(), Vec<T>> {
        self.produce_batch(vals)
    }

    /// Steal provenance `(private tier, shared level)` for tiered
    /// shards; flat shards report zeros.
    fn steal_provenance(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Implementation name for reporting.
    fn name(&self) -> &'static str;
}

/// Any [`ConcurrentDeque`] as a broker shard: produce at the right end
/// (batch-8 chunk-atomic via `push_right_n`), consume at the left.
pub struct FlatShard<D>(pub D);

impl<T: Send, D: ConcurrentDeque<T>> BrokerShard<T> for FlatShard<D> {
    const PRODUCER_EXCLUSIVE: bool = false;

    fn produce_batch(&self, vals: Vec<T>) -> Result<(), Vec<T>> {
        self.0.push_right_n(vals).map_err(|full| full.into_inner())
    }

    fn produce_one(&self, v: T) -> Result<(), T> {
        self.0.push_right(v).map_err(|full| full.into_inner())
    }

    fn consume_one(&self) -> Option<T> {
        self.0.pop_left()
    }

    fn consume_batch(&self, max: usize) -> Vec<T> {
        self.0.pop_left_n(max)
    }

    fn requeue_front(&self, v: T) -> Result<(), T> {
        self.0.push_left(v).map_err(|full| full.into_inner())
    }

    fn name(&self) -> &'static str {
        self.0.impl_name()
    }
}

/// The two-level tiered deque (Chase–Lev private tier over the paper's
/// unbounded list deque) as a broker shard.
///
/// The bound producer owns the push side: its values land in the
/// Chase–Lev tier at a release fence apiece and spill to the shared
/// DCAS level in chunk-atomic batches only when the shared level looks
/// empty. Consumers take through the thief-safe path (shared level
/// first, then the tier's top), so every inter-thread transfer is
/// either linearizable-deque traffic or a Chase–Lev steal.
pub struct TieredShard<T: Send>(pub TieredDeque<T, ListDeque<T, HarrisMcas>>);

impl<T: Send> TieredShard<T> {
    /// An empty tiered shard.
    pub fn new() -> Self {
        TieredShard(TieredDeque::new(ListDeque::new()))
    }
}

impl<T: Send> Default for TieredShard<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> BrokerShard<T> for TieredShard<T> {
    const PRODUCER_EXCLUSIVE: bool = true;

    fn produce_batch(&self, vals: Vec<T>) -> Result<(), Vec<T>> {
        // Owner-side pushes; the tier batches the spill itself. The
        // shared level is unbounded, so this never rejects.
        for v in vals {
            if let Err(v) = self.0.push(v) {
                return Err(vec![v]);
            }
        }
        Ok(())
    }

    fn produce_one(&self, v: T) -> Result<(), T> {
        self.0.push(v)
    }

    fn consume_one(&self) -> Option<T> {
        self.0.steal()
    }

    fn consume_batch(&self, max: usize) -> Vec<T> {
        self.0.steal_half(max)
    }

    fn requeue_front(&self, v: T) -> Result<(), T> {
        // The steal end is take-only; the consumer keeps the value in
        // its local stash instead.
        Err(v)
    }

    fn flush_local(&self) -> Vec<T> {
        self.0.flush_local()
    }

    fn rescue_publish(&self, vals: Vec<T>) -> Result<(), Vec<T>> {
        self.0
            .shared()
            .push_right_n(vals)
            .map_err(|full| full.into_inner())
    }

    fn steal_provenance(&self) -> (u64, u64) {
        self.0.tier_steals()
    }

    fn name(&self) -> &'static str {
        "tiered-chaselev"
    }
}
