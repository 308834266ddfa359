//! Metric catalog, run report, and the small statistics the harness needs.
//!
//! The two catalogs below are the contract with `BENCHMARK.json`: every workload
//! reports every end-to-end metric in an untraced run and every per-layer metric in
//! a traced run, each with the unit written here. `main` refuses to print a result
//! that misses one.

use std::collections::BTreeMap;

use ccf_core::ConditionalFilter;

/// End-to-end metrics: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_mops", "Mkeys/s"),
    ("contains_mops", "Mkeys/s"),
    ("insert_mops", "Mrows/s"),
    ("delete_mops", "Mrows/s"),
    ("scan_mrows", "Mrows/s"),
    ("batch_p50_us", "us"),
    ("batch_p90_us", "us"),
    ("mem_bits_per_row", "bits/row"),
    ("fpr", "ratio"),
    ("join_reduction", "ratio"),
];

/// Metrics every untraced run prints with its unit but that `BENCHMARK.json` does
/// not gate: their run-to-run spread on a small shared host is wider than any
/// bound the benchmark may set (see `perfbench/README.md`).
pub const REPORTED: &[(&str, &str)] = &[("batch_p99_us", "us"), ("fail_ratio", "ratio")];

/// Per-layer metrics of a traced run: name and unit. A layer a workload does not
/// reach reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ccf-hash.lower_ns_per_key", "ns/key"),
    ("ccf-hash.self_share", "ratio"),
    ("ccf-cuckoo.contains_ns_per_key", "ns/key"),
    ("ccf-cuckoo.load_factor", "ratio"),
    ("ccf-cuckoo.grows", "count"),
    ("ccf-cuckoo.self_share", "ratio"),
    ("ccf-core.query_ns_per_key", "ns/key"),
    ("ccf-core.match_ns_per_key", "ns/key"),
    ("ccf-core.insert_ns_per_row", "ns/row"),
    ("ccf-core.delete_ns_per_row", "ns/row"),
    ("ccf-core.heap_bits_per_entry", "bits/entry"),
    ("ccf-core.model_bits_per_entry", "bits/entry"),
    ("ccf-core.heap_over_model", "ratio"),
    ("ccf-core.kicks_per_insert", "kicks/row"),
    ("ccf-core.chain_hops_per_insert", "pairs/row"),
    ("ccf-core.insert_failures", "count"),
    ("ccf-core.delete_misses", "count"),
    ("ccf-core.live_false_negatives", "count"),
    ("ccf-core.self_share", "ratio"),
    ("ccf-shard.route_ns_per_key", "ns/key"),
    ("ccf-shard.parallel_speedup", "ratio"),
    ("ccf-shard.load_imbalance", "ratio"),
    ("ccf-shard.max_shard_probe_share", "ratio"),
    ("ccf-shard.self_share", "ratio"),
    ("ccf-join.pred_eval_ns_per_row", "ns/row"),
    ("ccf-join.ccf_probe_ns_per_key", "ns/key"),
    ("ccf-join.probes_per_row", "keys/row"),
    ("ccf-join.self_share", "ratio"),
    ("ccf-service.wire_encode_ns_per_key", "ns/key"),
    ("ccf-service.wire_decode_ns_per_key", "ns/key"),
    ("ccf-service.bytes_per_key", "bytes/key"),
    ("ccf-service.filter_share", "ratio"),
    ("ccf-service.protocol_errors", "count"),
    ("ccf-service.requests", "count"),
    ("ccf-service.self_share", "ratio"),
    ("proc.cpu_s_per_s", "ratio"),
    ("proc.fail_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name (end-to-end and per-layer share one namespace).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted in the timed phase (every key or row of every call).
    pub attempted: u64,
    /// Operations that failed: insert failures, delete misses on live rows,
    /// live-row false negatives, protocol errors and refusals.
    pub failed: u64,
    /// Correctness checks: description and whether it held.
    pub checks: Vec<(String, bool)>,
    /// Free-form context lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Exact order-statistic percentile of raw samples: the smallest sample with at
/// least `q` of the samples at or below it, plus how many samples lie strictly
/// beyond that rank.
pub fn percentile(sorted: &[f64], q: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Throughput in millions per second.
pub fn mops(items: u64, secs: f64) -> f64 {
    items as f64 / secs.max(1e-12) / 1e6
}

/// How far into the fast end of a sample the measured figure sits: rates are the
/// sample's upper decile, times its lower decile.
///
/// The benchmark shares a small host with other tenants, and their load comes
/// and goes in stretches of seconds to minutes that slow everything the host
/// runs, by up to half. Interference only ever slows the code down, so the fast
/// end of a run's samples estimates the code's own speed; and the closer to that
/// end the figure sits, the shorter the quiet stretch a run needs to contain for
/// the figure to describe the code rather than the neighbours. A decile rather
/// than the extreme keeps one lucky sample from setting it.
const FAST_END: f64 = 0.1;

/// The upper decile of a sample of rates (see [`FAST_END`]).
pub fn fast_rate(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 1.0 - FAST_END).0
}

/// The lower decile of a sample of times (see [`FAST_END`]).
pub fn fast_time(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, FAST_END).0
}

/// Per-round throughputs (items, seconds) reduced to their upper decile, in M/s.
pub fn round_mops(rounds: &[(u64, f64)]) -> f64 {
    let rates: Vec<f64> = rounds
        .iter()
        .filter(|(n, s)| *n > 0 && *s > 0.0)
        .map(|&(n, s)| mops(n, s))
        .collect();
    fast_rate(&rates)
}

/// Units of work for a timed phase of `seconds`: `per_second` units per second
/// of budget, at least `min`. The timed phases run a fixed amount of work rather
/// than stopping at a deadline, so one seed attempts the same operations, with
/// the same outcomes, on every run; the rates are calibrated so a phase takes
/// about its share of `--seconds` on a 2-vCPU Xeon host whose neighbours are
/// busy (less when they are quiet).
pub fn budget(seconds: f64, per_second: f64, min: usize) -> usize {
    ((seconds * per_second).round() as usize).max(min)
}

/// Each item's lower-decile time over the passes that timed it. `times[p][i]` is
/// item `i`'s seconds in pass `p`; every pass times the same items.
pub fn item_fast_times(times: &[Vec<f64>]) -> Vec<f64> {
    let items = times.first().map_or(0, Vec::len);
    (0..items)
        .map(|i| fast_time(&times.iter().map(|pass| pass[i]).collect::<Vec<_>>()))
        .collect()
}

/// Throughput of a pass over the same items repeated several times: one pass's
/// items over the sum of every item's lower-decile time, in M/s. Every run sums
/// the same items, and a pass slowed by another tenant of the host does not
/// count.
pub fn pass_mops(items_per_pass: u64, times: &[Vec<f64>]) -> f64 {
    mops(items_per_pass, item_fast_times(times).iter().sum())
}

/// Throughput over several operations from each one's item count and rate:
/// total items over the time those rates imply.
pub fn combined_mops(parts: &[(u64, f64)]) -> f64 {
    let items: u64 = parts.iter().map(|p| p.0).sum();
    let seconds: f64 = parts
        .iter()
        .map(|&(n, rate)| n as f64 / (rate * 1e6).max(1e-12))
        .sum();
    mops(items, seconds)
}

/// Latency samples in seconds, in the order they were taken, become
/// `batch_p50_us`, `batch_p90_us` and `batch_p99_us`: the samples are cut into
/// consecutive chunks of at least 1000 (at most `max_chunks`), each chunk's
/// percentiles are exact order statistics of its samples (a p99 with at least
/// ten samples beyond it), and the metrics are the lower deciles over chunks,
/// so a stretch of host noise in some chunks does not move them. Samples that
/// are already each call's fast time over repeated passes take one chunk.
/// Fewer than 1000 samples is a failed check.
pub fn record_latency(report: &mut Report, samples_s: &[f64], max_chunks: usize) {
    let chunks = (samples_s.len() / 1000).clamp(1, max_chunks);
    let per_chunk = (samples_s.len() / chunks).max(1);
    let mut by_quantile = [Vec::new(), Vec::new(), Vec::new()];
    for chunk in samples_s.chunks(per_chunk).take(chunks) {
        let mut us: Vec<f64> = chunk.iter().map(|s| s * 1e6).collect();
        us.sort_by(f64::total_cmp);
        for (out, q) in by_quantile.iter_mut().zip([0.5, 0.9, 0.99]) {
            out.push(percentile(&us, q).0);
        }
    }
    let mut all: Vec<f64> = samples_s.iter().map(|s| s * 1e6).collect();
    all.sort_by(f64::total_cmp);
    let shape: Vec<String> = [0.5, 0.9, 0.99, 0.999]
        .iter()
        .map(|&q| format!("p{} {:.1}", q * 100.0, percentile(&all, q).0))
        .collect();
    report.note(format!(
        "batch latency: {} samples in {chunks} chunks of {per_chunk}; whole run {} us",
        samples_s.len(),
        shape.join(", ")
    ));
    report.check(
        format!(
            "at least 1000 latency samples per chunk, so 10 lie beyond each p99 (have {})",
            samples_s.len()
        ),
        samples_s.len() >= 1000,
    );
    report.set("batch_p50_us", fast_time(&by_quantile[0]));
    report.set("batch_p90_us", fast_time(&by_quantile[1]));
    report.set("batch_p99_us", fast_time(&by_quantile[2]));
}

/// Resident set size of this process in bytes (`/proc/self/statm`).
pub fn rss_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|p| p.parse().ok())
        .unwrap_or(0);
    pages * 4096
}

/// User plus system CPU seconds of this process, all threads (`/proc/self/stat`,
/// in USER_HZ = 100 ticks per second).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the 14th
    // and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Memory cost of a setup: RSS growth × 8 / rows stored.
pub fn bits_per_row(rss_before: u64, rss_after: u64, rows: usize) -> f64 {
    rss_after.saturating_sub(rss_before) as f64 * 8.0 / rows.max(1) as f64
}

/// `ccf-core.kicks_per_insert` and `ccf-core.chain_hops_per_insert`: the means
/// of the `ccf_kick_depth` and `ccf_chain_walk_depth` histograms, summed over
/// every label set (0 when a histogram is absent).
pub fn set_telemetry_metrics(report: &mut Report, telemetry: &ccf_telemetry::Telemetry) {
    let snapshot = telemetry.snapshot();
    let mean = |name: &str| {
        let (mut sum, mut count) = (0u64, 0u64);
        for e in snapshot.entries.iter().filter(|e| e.name == name) {
            if let ccf_telemetry::MetricValue::Histogram(h) = &e.value {
                sum += h.sum;
                count += h.count();
            }
        }
        sum as f64 / count.max(1) as f64
    };
    report.set("ccf-core.kicks_per_insert", mean("ccf_kick_depth"));
    report.set(
        "ccf-core.chain_hops_per_insert",
        mean("ccf_chain_walk_depth"),
    );
}

/// Median traced round time over median untraced round time, minus one.
pub fn overhead_ratio(traced_s: &[f64], plain_s: &[f64]) -> f64 {
    median(traced_s) / median(plain_s).max(1e-12) - 1.0
}

/// Heap bits per entry, the paper's model bits per entry, and their ratio, from
/// `(heap_bytes, size_bits, occupied)` of each filter.
pub fn set_space_metrics(report: &mut Report, filters: &[(usize, usize, usize)]) {
    let heap: usize = filters.iter().map(|f| f.0).sum();
    let model: usize = filters.iter().map(|f| f.1).sum();
    let occupied = filters.iter().map(|f| f.2).sum::<usize>().max(1) as f64;
    let heap_bits = heap as f64 * 8.0 / occupied;
    let model_bits = model as f64 / occupied;
    report.set("ccf-core.heap_bits_per_entry", heap_bits);
    report.set("ccf-core.model_bits_per_entry", model_bits);
    report.set(
        "ccf-core.heap_over_model",
        heap_bits / model_bits.max(1e-12),
    );
}

/// The `(heap_bytes, size_bits, occupied)` triple of one filter.
pub fn space_of(filter: &ccf_core::AnyCcf) -> (usize, usize, usize) {
    let o = filter.occupancy();
    (o.heap_bytes, filter.size_bits(), o.occupied)
}
