//! A hosted tenant: one filter (single or sharded) behind the daemon.
//!
//! `shards=1` tenants host a bare [`AnyCcf`] behind an `RwLock`; larger shard counts
//! host a [`ShardedCcf`], whose locking is per shard. Either way every batched
//! operation processes its batch in input order, so results are bit-identical to the
//! same calls made in-process against the same filter — the wire adds transport, not
//! semantics.

use std::sync::RwLock;

use ccf_core::{AnyCcf, ConditionalFilter, DeleteFailure, InsertFailure, InsertOutcome, Predicate};
use ccf_cuckoo::SnapshotError;
use ccf_shard::{ShardSnapshot, ShardStats, ShardedCcf};
use ccf_telemetry::Telemetry;

use crate::config::TenantSpec;
use crate::error::ServiceError;

/// Lock-poisoning message: a worker panicked while holding the write lock.
const POISONED: &str = "tenant filter lock poisoned: a writer panicked mid-mutation";

/// Snapshot-image tag for a single-filter tenant.
const TAG_SINGLE: u8 = 0;
/// Snapshot-image tag for a sharded tenant.
const TAG_SHARDED: u8 = 1;

/// One tenant's filter, single or sharded.
#[derive(Debug)]
pub enum Tenant {
    /// A single filter behind one lock (boxed: an `AnyCcf` inlines the whole
    /// variant, hundreds of bytes next to `ShardedCcf`'s `Arc`).
    Single(Box<RwLock<AnyCcf>>),
    /// A hash-partitioned service with per-shard locks.
    Sharded(ShardedCcf),
}

impl Tenant {
    /// Build a fresh (empty) tenant from its spec.
    pub fn from_spec(spec: &TenantSpec) -> Result<Self, ServiceError> {
        Ok(if spec.shards == 1 {
            Tenant::Single(Box::new(RwLock::new(AnyCcf::try_new(
                spec.variant,
                spec.params,
            )?)))
        } else {
            Tenant::Sharded(ShardedCcf::try_new(spec.variant, spec.params, spec.shards)?)
        })
    }

    /// Attach (or detach, with a disabled handle) telemetry to the tenant's filters.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry, labels: &[(&str, &str)]) {
        match self {
            Tenant::Single(f) => f
                .get_mut()
                .expect(POISONED)
                .attach_telemetry(telemetry, labels),
            Tenant::Sharded(s) => s.attach_telemetry(telemetry, labels),
        }
    }

    /// Batched row insert, in input order.
    pub fn insert_batch(
        &self,
        rows: &[(u64, Vec<u64>)],
    ) -> Vec<Result<InsertOutcome, InsertFailure>> {
        match self {
            Tenant::Single(f) => {
                let mut f = f.write().expect(POISONED);
                rows.iter().map(|(k, a)| f.insert_row(*k, a)).collect()
            }
            Tenant::Sharded(s) => s.insert_batch(rows),
        }
    }

    /// Batched predicate query, in input order.
    pub fn query_batch(&self, keys: &[u64], pred: &Predicate) -> Vec<bool> {
        match self {
            Tenant::Single(f) => f.read().expect(POISONED).query_batch(keys, pred),
            Tenant::Sharded(s) => s.query_batch(keys, pred),
        }
    }

    /// Batched key-only membership, in input order.
    pub fn contains_batch(&self, keys: &[u64]) -> Vec<bool> {
        match self {
            Tenant::Single(f) => f.read().expect(POISONED).contains_key_batch(keys),
            Tenant::Sharded(s) => s.contains_key_batch(keys),
        }
    }

    /// Batched row deletion, in input order.
    pub fn delete_row_batch(&self, rows: &[(u64, Vec<u64>)]) -> Vec<Result<bool, DeleteFailure>> {
        match self {
            Tenant::Single(f) => {
                let mut f = f.write().expect(POISONED);
                rows.iter().map(|(k, a)| f.delete_row(*k, a)).collect()
            }
            Tenant::Sharded(s) => s.delete_row_batch(rows),
        }
    }

    /// Batched key deletion, in input order.
    pub fn delete_key_batch(&self, keys: &[u64]) -> Vec<Result<bool, DeleteFailure>> {
        match self {
            Tenant::Single(f) => {
                let mut f = f.write().expect(POISONED);
                keys.iter().map(|&k| f.delete_key(k)).collect()
            }
            Tenant::Sharded(s) => s.delete_key_batch(keys),
        }
    }

    /// An unconstrained predicate spanning the tenant's attribute columns.
    pub fn predicate(&self) -> Predicate {
        match self {
            Tenant::Single(f) => f.read().expect(POISONED).predicate(),
            Tenant::Sharded(s) => s.predicate(),
        }
    }

    /// Occupancy/growth statistics in the [`ShardStats`] vocabulary; a single-filter
    /// tenant reports as a one-shard service.
    pub fn stats(&self) -> ShardStats {
        match self {
            Tenant::Single(f) => {
                let f = f.read().expect(POISONED);
                let p = f.params();
                ShardStats::aggregate(vec![ShardSnapshot {
                    occupancy: f.occupancy(),
                    growth: f.growth_stats(),
                    size_bits: f.size_bits(),
                    expected_key_fpr: ccf_core::fpr::key_only_fpr(
                        2.0 * f.load_factor() * p.entries_per_bucket as f64,
                        p.fingerprint_bits,
                    ),
                }])
            }
            Tenant::Sharded(s) => s.stats(),
        }
    }

    /// Serialize to a tagged snapshot image (the payload `crate::persist` wraps into
    /// the on-disk envelope).
    pub fn to_snapshot_bytes(&self) -> (u8, Vec<u8>) {
        match self {
            Tenant::Single(f) => (TAG_SINGLE, f.read().expect(POISONED).to_snapshot_bytes()),
            Tenant::Sharded(s) => (TAG_SHARDED, s.to_snapshot_bytes()),
        }
    }

    /// Rebuild from a tagged snapshot image.
    pub fn from_snapshot_bytes(tag: u8, image: &[u8]) -> Result<Self, ServiceError> {
        match tag {
            TAG_SINGLE => Ok(Tenant::Single(Box::new(RwLock::new(
                AnyCcf::from_snapshot_bytes(image)?,
            )))),
            TAG_SHARDED => Ok(Tenant::Sharded(ShardedCcf::from_snapshot_bytes(image)?)),
            other => Err(ServiceError::Snapshot(SnapshotError::Invalid(format!(
                "unknown tenant snapshot tag {other}"
            )))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(s: &str) -> TenantSpec {
        TenantSpec::parse(s).unwrap()
    }

    #[test]
    fn single_and_sharded_tenants_agree_with_in_process_filters() {
        let rows: Vec<(u64, Vec<u64>)> = (0..500u64).map(|k| (k, vec![k % 5, k % 9])).collect();
        let keys: Vec<u64> = (0..1000).collect();
        let single_spec = spec("id=1,buckets=256,seed=5");
        let single = Tenant::from_spec(&single_spec).unwrap();
        let sharded = Tenant::from_spec(&spec("id=2,buckets=64,shards=4,seed=5")).unwrap();
        for tenant in [&single, &sharded] {
            let outcomes = tenant.insert_batch(&rows);
            assert!(outcomes.iter().all(|o| o.is_ok()));
            let pred = tenant.predicate().and_eq(0, 3);
            let hits = tenant.query_batch(&keys, &pred);
            let members = tenant.contains_batch(&keys);
            for (i, &k) in keys.iter().enumerate() {
                if k < 500 {
                    assert!(members[i], "lost key {k}");
                    if k % 5 == 3 {
                        assert!(hits[i], "false negative for {k}");
                    }
                }
            }
            assert!(tenant.stats().occupied_entries() > 0);
        }
        // In-process reference: same params, same insert stream, per-key loop.
        let mut reference = AnyCcf::try_new(single_spec.variant, single_spec.params).unwrap();
        for (k, a) in &rows {
            reference.insert_row(*k, a).unwrap();
        }
        let pred = reference.predicate().and_eq(0, 3);
        assert_eq!(
            single.query_batch(&keys, &pred),
            keys.iter()
                .map(|&k| reference.query(k, &pred))
                .collect::<Vec<_>>(),
            "single-filter tenant query batches must match per-key queries"
        );
        assert_eq!(
            single.contains_batch(&keys),
            keys.iter()
                .map(|&k| reference.contains_key(k))
                .collect::<Vec<_>>(),
            "single-filter tenant contains batches must match per-key lookups"
        );
    }

    #[test]
    fn tenant_snapshots_round_trip_by_tag() {
        for s in ["id=1,buckets=128,seed=3", "id=2,buckets=64,shards=3,seed=3"] {
            let tenant = Tenant::from_spec(&spec(s)).unwrap();
            let rows: Vec<(u64, Vec<u64>)> = (0..300u64).map(|k| (k, vec![k % 5, k % 9])).collect();
            tenant.insert_batch(&rows);
            let (tag, image) = tenant.to_snapshot_bytes();
            let reloaded = Tenant::from_snapshot_bytes(tag, &image).unwrap();
            let keys: Vec<u64> = (0..600).collect();
            assert_eq!(tenant.contains_batch(&keys), reloaded.contains_batch(&keys));
            let (tag2, image2) = reloaded.to_snapshot_bytes();
            assert_eq!((tag, image), (tag2, image2));
        }
        assert!(Tenant::from_snapshot_bytes(9, &[]).is_err());
    }
}
