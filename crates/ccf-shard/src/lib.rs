//! Sharded, thread-safe conditional-cuckoo-filter service layer.
//!
//! The paper evaluates its filters single-threaded; this crate is the concurrent
//! front end a production deployment needs (in the spirit of partitioned designs like
//! Cuckoo-GPU's massive-batch partitioned probing). A [`ShardedCcf`] hash-partitions
//! the keyspace over `N` independent [`ccf_core::AnyCcf`] shards — any variant, any
//! predicate configuration — each behind its own `RwLock`, with per-shard `auto_grow`:
//!
//! * [`router`] — key → shard routing by the dedicated `purpose::SHARD` salt, disjoint
//!   from every in-shard hash so routing never correlates with in-shard placement.
//! * [`service`] — [`ShardedCcf`]: concurrent point ops plus parallel batch
//!   `insert` / `query` / `contains_key` / `delete_row` / `delete_key` that run
//!   per-shard chunks on the shared fan-out pool while staying bit-identical to a
//!   sequential per-key loop.
//! * [`stats`] — [`ShardStats`]: per-shard occupancy / growth / FPR metrics merged
//!   into the service-wide summary, in the `ccf_cuckoo::metrics` vocabulary.
//! * [`fanout`] — [`FanOutPool`], the process-wide set of long-lived helper threads
//!   every parallel path (batch ops here, bank builds in `ccf-join`) runs on. The
//!   calling thread works through a batch's chunks itself and helpers take the ones
//!   it has not reached, so no thread is created per batch and the thread count
//!   stays `callers + helpers` however many batches are in flight.
//!
//! # Thread-safety contract
//!
//! `ShardedCcf` keeps its shards in an `Arc` that the pool's helper threads share
//! while they run a batch's chunks. That is possible only because every filter type
//! is `Send + Sync` (no interior mutability, no `Rc`, no thread affinity: the RNG
//! state and hash family live inline in each filter). That contract is enforced *at
//! compile time* below — if a future change gave a filter non-`Send` internals, this
//! crate would stop compiling rather than silently serialise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fanout;
pub mod router;
pub mod service;
pub mod stats;

pub use fanout::{Attempt, FanOutPool};
pub use router::{Partition, ShardRouter};
pub use service::{ShardedCcf, SHARD_SNAPSHOT_MAGIC, SHARD_SNAPSHOT_VERSION};
pub use stats::{ShardSnapshot, ShardStats};

/// Compile-time `Send + Sync` witness: instantiating this in a `const` fails to
/// compile unless `T` is safe to share with the fan-out pool's helper threads.
pub const fn assert_send_sync<T: Send + Sync>() {}

// The thread-safety contract ccf-shard relies on, checked at compile time for every
// filter type a shard (or a derived predicate filter handed to another thread) can be.
const _: () = {
    assert_send_sync::<ccf_core::AnyCcf>();
    assert_send_sync::<ccf_core::PlainCcf>();
    assert_send_sync::<ccf_core::ChainedCcf>();
    assert_send_sync::<ccf_core::BloomCcf>();
    assert_send_sync::<ccf_core::MixedCcf>();
    assert_send_sync::<ccf_core::ChainedPredicateFilter>();
    assert_send_sync::<ccf_cuckoo::CuckooFilter>();
    assert_send_sync::<ccf_cuckoo::CuckooHashTable<u64>>();
    assert_send_sync::<ShardedCcf>();
    assert_send_sync::<FanOutPool>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_ccf_is_shareable_and_sendable() {
        // The const block above is the real (compile-time) test; this keeps a runtime
        // trace of the contract in the test listing and exercises the helper.
        assert_send_sync::<ShardedCcf>();
        assert_send_sync::<ShardStats>();
        assert_send_sync::<ShardRouter>();
    }
}
