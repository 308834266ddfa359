//! Property tests for the sharded service's equivalence and growth contracts.
//!
//! * **Sequential-vs-sharded equivalence** — for any key set and shard count, a
//!   [`ShardedCcf`]'s (batched, multi-threaded) query results equal a reference run
//!   against `N` standalone filters fed shard-by-shard through the same router. This
//!   pins down the whole routing + partition + fan-out + scatter pipeline, not just
//!   the per-shard batch kernels PR 2 already verified.
//! * **Zero false negatives across growth** — with tiny `auto_grow` shards and
//!   multi-threaded batch inserts, every inserted row stays queryable after the
//!   per-shard doublings the overload forces.
//! * **Shared-pool equivalence** — concurrent callers on two services sharing one
//!   fan-out pool, and batches issued from inside a pool item (as the join bank
//!   build does), produce exactly the answers of a sequential replay. Each runs on
//!   pools of 0, 1 and 3 helpers, so the 1-CPU and 4-CPU shapes are covered on any
//!   host.

use std::sync::Arc;

use ccf_core::{
    AnyCcf, CcfParams, ConditionalFilter, DeleteFailure, InsertFailure, InsertOutcome, Predicate,
    VariantKind,
};
use ccf_shard::{FanOutPool, ShardRouter, ShardedCcf};
use proptest::prelude::*;

fn variant_of(ix: u8) -> VariantKind {
    match ix % 4 {
        0 => VariantKind::Plain,
        1 => VariantKind::Chained,
        2 => VariantKind::Bloom,
        _ => VariantKind::Mixed,
    }
}

fn shard_params(seed: u64) -> CcfParams {
    CcfParams {
        num_buckets: 1 << 7,
        num_attrs: 2,
        seed,
        ..CcfParams::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharded query results are bit-identical to a reference single-filter run
    /// shard-by-shard: the same rows routed by the same router into standalone
    /// `AnyCcf`s must answer every probe exactly like the service does.
    #[test]
    fn sharded_queries_equal_shard_by_shard_reference(
        seed in any::<u64>(),
        num_shards in 1usize..=6,
        threads in 1usize..=4,
        variant_ix in any::<u8>(),
        num_rows in 1usize..=400,
    ) {
        let kind = variant_of(variant_ix);
        let params = shard_params(seed);
        let service = ShardedCcf::new(kind, params, num_shards).with_threads(threads);
        let router = ShardRouter::new(seed, num_shards);
        prop_assert_eq!(*service.router(), router);
        let mut reference: Vec<AnyCcf> = (0..num_shards).map(|_| AnyCcf::new(kind, params)).collect();

        let rows: Vec<(u64, [u64; 2])> = (0..num_rows as u64)
            .map(|i| {
                let key = i.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17) ^ seed;
                (key, [key % 7, key % 13])
            })
            .collect();
        let outcomes = service.insert_batch(&rows);
        for (i, (key, attrs)) in rows.iter().enumerate() {
            let reference_outcome = reference[router.shard_of(*key)].insert_row(*key, attrs);
            prop_assert_eq!(outcomes[i], reference_outcome, "insert outcomes diverged");
        }

        // Probe with a mixed hit/miss stream under a predicate and key-only.
        let probes: Vec<u64> = rows
            .iter()
            .map(|(k, _)| *k)
            .chain((0..200u64).map(|i| seed ^ (i.wrapping_mul(0xD1B54A32D192ED03))))
            .collect();
        let pred = Predicate::any(2).and_eq(0, 3);
        let queried = service.query_batch(&probes, &pred);
        let contained = service.contains_key_batch(&probes);
        for (i, &key) in probes.iter().enumerate() {
            let shard = &reference[router.shard_of(key)];
            prop_assert_eq!(queried[i], shard.query(key, &pred), "query diverged for {}", key);
            prop_assert_eq!(contained[i], shard.contains_key(key), "contains diverged for {}", key);
        }
    }

    /// Per-shard growth keeps the zero-false-negative contract under concurrent
    /// (multi-threaded, batched) inserts overloading every shard past its capacity.
    #[test]
    fn growth_keeps_zero_false_negatives_under_concurrent_inserts(
        seed in any::<u64>(),
        num_shards in 1usize..=4,
        overload in 2usize..=6,
    ) {
        let params = CcfParams {
            num_buckets: 1 << 4,
            num_attrs: 1,
            seed,
            ..CcfParams::default()
        }
        .with_auto_grow();
        let service = ShardedCcf::new(VariantKind::Chained, params, num_shards)
            .with_threads(num_shards);
        let total = overload * num_shards * (1 << 4) * params.entries_per_bucket;
        let rows: Vec<(u64, [u64; 1])> = (0..total as u64)
            .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) ^ seed, [i % 5]))
            .collect();
        let outcomes = service.insert_batch(&rows);
        prop_assert!(outcomes.iter().all(|o| o.is_ok()), "auto-grow shard refused a row");
        if overload >= 2 {
            prop_assert!(service.stats().total_doublings() >= 1, "overload never grew a shard");
        }
        let checks = service.contains_key_batch(&rows.iter().map(|(k, _)| *k).collect::<Vec<_>>());
        let lost = checks.iter().filter(|&&c| !c).count();
        prop_assert_eq!(lost, 0, "false negatives after concurrent growth");
        for (key, attrs) in rows.iter().take(500) {
            let pred = Predicate::any(1).and_eq(0, attrs[0]);
            prop_assert!(service.query(*key, &pred), "row lost under its own predicate");
        }
    }
}

/// Helper counts the shared-pool tests run on: the 1-, 2- and 4-CPU shapes.
const HELPER_COUNTS: [usize; 3] = [0, 1, 3];

type Row = (u64, [u64; 2]);

fn pool_rows(seed: u64, n: u64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let key = i.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(23) ^ seed;
            (key, [key % 5, key % 11])
        })
        .collect()
}

/// Everything one writer observes: per-batch insert outcomes, then row deletes,
/// then key deletes.
#[derive(Debug, PartialEq)]
struct WriteLog {
    inserts: Vec<Vec<Result<InsertOutcome, InsertFailure>>>,
    row_deletes: Vec<Result<bool, DeleteFailure>>,
    key_deletes: Vec<Result<bool, DeleteFailure>>,
}

/// One writer's program against a service: batched inserts in 128-row slices, then
/// batched deletes of every fifth row and every seventh key.
fn write_program(service: &ShardedCcf, rows: &[Row]) -> WriteLog {
    let inserts = rows.chunks(128).map(|b| service.insert_batch(b)).collect();
    let victims: Vec<Row> = rows.iter().copied().step_by(5).collect();
    let keys: Vec<u64> = rows.iter().map(|(k, _)| *k).skip(1).step_by(7).collect();
    WriteLog {
        inserts,
        row_deletes: service.delete_row_batch(&victims),
        key_deletes: service.delete_key_batch(&keys),
    }
}

/// One reader's answers: per 256-key batch, the query answers, then the contains
/// answers.
type Answers = Vec<Vec<bool>>;

/// Query and contains answers over a mixed hit/miss stream, in 256-key batches.
fn read_program(service: &ShardedCcf, rows: &[Row], salt: u64) -> Answers {
    let probes: Vec<u64> = rows
        .iter()
        .map(|(k, _)| *k)
        .chain((0..300u64).map(|i| (i ^ salt).wrapping_mul(0xD1B54A32D192ED03)))
        .collect();
    let pred = service.predicate().and_eq(0, salt % 5);
    probes
        .chunks(256)
        .flat_map(|b| [service.query_batch(b, &pred), service.contains_key_batch(b)])
        .collect()
}

fn pooled_service(kind: VariantKind, seed: u64, pool: &Arc<FanOutPool>) -> ShardedCcf {
    ShardedCcf::new(kind, shard_params(seed).with_auto_grow(), 4)
        .with_threads(4)
        .with_pool(Arc::clone(pool))
}

fn sequential_service(kind: VariantKind, seed: u64) -> ShardedCcf {
    ShardedCcf::new(kind, shard_params(seed).with_auto_grow(), 4).with_threads(1)
}

/// Readers per service in the shared-pool test.
const READERS: u64 = 3;

/// Everything observed of one service: its writer's log, each reader's answers, and
/// the final snapshot bytes (taken at a thread cap of 1, which the header records).
#[derive(Debug, PartialEq)]
struct Observed {
    writes: WriteLog,
    reads: Vec<Answers>,
    state: Vec<u8>,
}

/// Two services share one pool; one writer per service runs concurrently with the
/// other, then three readers per service run concurrently. Every answer and the
/// final snapshot bytes equal a sequential replay on unpooled, one-thread services.
#[test]
fn concurrent_callers_on_a_shared_pool_match_a_sequential_replay() {
    let specs = [(VariantKind::Chained, 101u64), (VariantKind::Mixed, 202u64)];
    let data: Vec<Vec<Row>> = specs
        .iter()
        .map(|&(_, seed)| pool_rows(seed, 700))
        .collect();
    let expected: Vec<Observed> = specs
        .iter()
        .zip(&data)
        .map(|(&(kind, seed), rows)| {
            let service = sequential_service(kind, seed);
            Observed {
                writes: write_program(&service, rows),
                reads: (0..READERS)
                    .map(|r| read_program(&service, rows, r))
                    .collect(),
                state: service.to_snapshot_bytes(),
            }
        })
        .collect();
    for helpers in HELPER_COUNTS {
        let pool = FanOutPool::new(helpers);
        let services: Vec<ShardedCcf> = specs
            .iter()
            .map(|&(kind, seed)| pooled_service(kind, seed, &pool))
            .collect();
        let writes: Vec<WriteLog> = std::thread::scope(|scope| {
            let writers: Vec<_> = services
                .iter()
                .zip(&data)
                .map(|(service, rows)| scope.spawn(move || write_program(service, rows)))
                .collect();
            writers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let reads: Vec<Vec<Answers>> = std::thread::scope(|scope| {
            let readers: Vec<Vec<_>> = services
                .iter()
                .zip(&data)
                .map(|(service, rows)| {
                    (0..READERS)
                        .map(|r| scope.spawn(move || read_program(service, rows, r)))
                        .collect()
                })
                .collect();
            readers
                .into_iter()
                .map(|per| per.into_iter().map(|h| h.join().unwrap()).collect())
                .collect()
        });
        let observed: Vec<Observed> = services
            .into_iter()
            .zip(writes.into_iter().zip(reads))
            .map(|(service, (writes, reads))| Observed {
                writes,
                reads,
                state: service.with_threads(1).to_snapshot_bytes(),
            })
            .collect();
        assert_eq!(observed, expected, "helpers = {helpers}");
    }
}

/// Pool items that themselves issue sharded batches on the same pool — the shape of
/// the join bank build — finish with the answers of a sequential replay.
#[test]
fn nested_batches_inside_pool_items_match_a_sequential_replay() {
    const TABLES: u64 = 5;
    let expected: Vec<(WriteLog, Answers)> = (0..TABLES)
        .map(|t| {
            let rows = pool_rows(t, 500);
            let service = sequential_service(VariantKind::Chained, t);
            (
                write_program(&service, &rows),
                read_program(&service, &rows, t),
            )
        })
        .collect();
    for helpers in HELPER_COUNTS {
        let pool = FanOutPool::new(helpers);
        let inner = Arc::clone(&pool);
        let built = pool.run(TABLES as usize, 4, move |t| {
            let t = t as u64;
            let rows = pool_rows(t, 500);
            let service = pooled_service(VariantKind::Chained, t, &inner);
            Some((
                write_program(&service, &rows),
                read_program(&service, &rows, t),
            ))
        });
        let built: Vec<_> = built.into_iter().map(|(_, r)| r).collect();
        assert_eq!(built, expected, "helpers = {helpers}");
    }
}
