//! The sharded service's batch fan-out runs on a fixed set of pool helpers, so the
//! process's thread count stays bounded by `callers + helpers` however many batches
//! concurrent callers issue. Kept in its own test binary: the count is read
//! process-wide from `/proc/self/status`, and no other test may add threads here.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicUsize, Ordering};

use ccf_core::{CcfParams, VariantKind};
use ccf_shard::{FanOutPool, ShardedCcf};

const CALLERS: usize = 8;
const BATCHES_PER_CALLER: u64 = 60;

/// The process's current thread count, from the `Threads:` line of
/// `/proc/self/status`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn concurrent_batches_add_no_threads_beyond_callers_and_helpers() {
    let params = CcfParams {
        num_buckets: 1 << 8,
        num_attrs: 2,
        seed: 5,
        ..CcfParams::default()
    }
    .with_auto_grow();
    let service = ShardedCcf::new(VariantKind::Mixed, params, 4).with_threads(4);
    // Start the process-wide pool before taking the baseline.
    let helpers = FanOutPool::global().helpers();
    let baseline = os_threads();
    let peak = AtomicUsize::new(baseline);
    std::thread::scope(|scope| {
        for caller in 0..CALLERS as u64 {
            let (service, peak) = (&service, &peak);
            scope.spawn(move || {
                let pred = service.predicate().and_eq(0, 1);
                for b in 0..BATCHES_PER_CALLER {
                    let base = (caller * BATCHES_PER_CALLER + b) * 512;
                    let rows: Vec<(u64, [u64; 2])> =
                        (base..base + 512).map(|k| (k, [k % 3, k % 7])).collect();
                    let keys: Vec<u64> = rows.iter().map(|(k, _)| *k).collect();
                    service.insert_batch(&rows);
                    service.query_batch(&keys, &pred);
                    service.contains_key_batch(&keys);
                    peak.fetch_max(os_threads(), Ordering::Relaxed);
                }
            });
        }
    });
    let peak = peak.into_inner();
    assert!(
        peak <= baseline + CALLERS + helpers,
        "{peak} threads at peak; bound is {baseline} (harness) + {CALLERS} callers + \
         {helpers} pool helpers"
    );
    // The helpers existed before the baseline, so the batches added only callers.
    assert!(peak >= baseline, "thread count fell below the baseline");
}
