//! `joblight`: the paper's own application — CCF banks shrinking JOB-light joins.
//!
//! A synthetic IMDB at scale divisor 64 (about 1M rows over six tables) gets a
//! `FilterConfig::large(Chained)` bank. Every JOB-light instance is a filtered
//! scan of its base table: evaluate the base table's own predicates row by row,
//! then probe the surviving keys against every other table's CCF with that
//! table's predicate, pruning as it goes (as `evaluate_query_with` does). The
//! key-only baseline pass is timed separately. Exact semijoins are computed once,
//! before anything is timed. After the scan passes, write passes evict and
//! re-insert a fixed set of unique rows of the bank's tables.

use std::collections::HashSet;
use std::time::Instant;

use ccf_core::{ConditionalFilter, Predicate, VariantKind};
use ccf_join::bridge::{ccf_attrs_for_row, ccf_predicate_for, row_matches_table_predicates};
use ccf_join::reduction::ProbeBank;
use ccf_join::{exact_semijoin_keys, FilterBank, FilterConfig};
use ccf_telemetry::Telemetry;
use ccf_workloads::{JobLightWorkload, QueryTable, SyntheticImdb, TableId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::probes::BATCH;
use crate::report::{self, median, set_space_metrics, space_of, Report};
use crate::trace::{self, span, Span};
use crate::Ctx;

/// Generator seed of the fixed synthetic IMDB, its JOB-light queries, the banks'
/// hash functions and the write passes' row order.
const JOB_LIGHT_SEED: u64 = 7;

/// Scan passes per second of `--seconds` (one pass takes about 1.6 s).
const SCAN_PASSES_PER_S: f64 = 0.5;
/// Chunks of [`BATCH`] unique rows that every write pass evicts and re-inserts.
const WRITE_CHUNKS: usize = 96;
/// Write passes per second of `--seconds` (one pass takes about 0.3 s).
const WRITE_PASSES_PER_S: f64 = 0.7;

/// One (query, base table) instance with its exact ground truth.
struct Instance {
    base: QueryTable,
    others: Vec<(TableId, Predicate)>,
    exact_binned: HashSet<u64>,
}

/// Totals of one pass over every instance.
#[derive(Default, Clone, Copy)]
struct Pass {
    rows: u64,
    pred_s: f64,
    key_keys: u64,
    key_s: f64,
    ccf_keys: u64,
    ccf_s: f64,
    m_predicate: u64,
    m_exact_binned: u64,
    m_ccf: u64,
    /// Exact-binned survivors the CCF probes dropped (must be 0).
    lost: u64,
}

/// One instance's seconds in one pass: predicate evaluation, key-only probes,
/// CCF probes.
type InstanceTimes = [f64; 3];

fn build(db: &SyntheticImdb, seed: u64, telemetry: &Telemetry) -> FilterBank {
    let config = FilterConfig {
        seed,
        ..FilterConfig::large(VariantKind::Chained)
    };
    FilterBank::build_with_telemetry(db, config, telemetry)
}

/// Probe `keys` against every other table, keeping only keys that pass; `probe`
/// answers one chunk of at most [`BATCH`] keys.
fn prune(
    mut keys: Vec<u64>,
    others: &[(TableId, Predicate)],
    mut probe: impl FnMut(TableId, &Predicate, &[u64]) -> Vec<bool>,
) -> (Vec<u64>, u64) {
    let mut probed = 0u64;
    for (tid, pred) in others {
        if keys.is_empty() {
            break;
        }
        let mut hits = Vec::with_capacity(keys.len());
        for chunk in keys.chunks(BATCH) {
            hits.extend(probe(*tid, pred, chunk));
        }
        probed += keys.len() as u64;
        let mut alive = hits.into_iter();
        keys.retain(|_| alive.next().unwrap_or(false));
    }
    (keys, probed)
}

/// One filtered scan of every instance, with the counts the accuracy metrics and
/// the no-lost-survivor check need.
fn scan_pass(
    db: &SyntheticImdb,
    bank: &FilterBank,
    instances: &[Instance],
    latencies: &mut Vec<f64>,
    plant_fault: bool,
) -> (Pass, Vec<InstanceTimes>) {
    let traced = trace::is_enabled();
    let mut pass = Pass::default();
    let mut times = Vec::with_capacity(instances.len());
    for inst in instances {
        let table = db.table(inst.base.table);
        let n = table.num_rows();
        let t = Instant::now();
        let probe_keys = span("ccf-join.row_matches_table_predicates", n as u64, || {
            (0..n)
                .filter(|&row| row_matches_table_predicates(table, row, &inst.base))
                .map(|row| table.join_keys[row])
                .collect::<Vec<u64>>()
        });
        let pred_s = t.elapsed().as_secs_f64();
        pass.rows += n as u64;

        let keys = probe_keys.clone();
        let t = Instant::now();
        let (_, key_probed) = prune(keys, &inst.others, |tid, _, chunk| {
            span("ccf-join.key_probe", chunk.len() as u64, || {
                bank.key_probe(tid, chunk)
            })
        });
        let key_s = t.elapsed().as_secs_f64();
        pass.key_keys += key_probed;

        let t = Instant::now();
        let (mut survivors, ccf_probed) =
            prune(probe_keys.clone(), &inst.others, |tid, pred, chunk| {
                let tc = Instant::now();
                let hits = span("ccf-join.ccf_probe", chunk.len() as u64, || {
                    bank.ccf_probe(tid, pred, chunk)
                });
                if chunk.len() == BATCH {
                    latencies.push(tc.elapsed().as_secs_f64());
                }
                hits
            });
        let ccf_s = t.elapsed().as_secs_f64();
        pass.ccf_keys += ccf_probed;
        pass.pred_s += pred_s;
        pass.key_s += key_s;
        pass.ccf_s += ccf_s;
        times.push([pred_s, key_s, ccf_s]);

        if traced {
            // The core query and key-only probe under the same chunks, outside the
            // scan's timing, to split the CCF probe into bucket probe and match.
            prune(probe_keys.clone(), &inst.others, |tid, pred, chunk| {
                let ccf = &bank.table(tid).ccf;
                std::hint::black_box(span(
                    "ccf-cuckoo.contains_key_batch_prehashed",
                    chunk.len() as u64,
                    || ccf.contains_key_batch_prehashed(chunk),
                ));
                span("ccf-core.query_batch_prehashed", chunk.len() as u64, || {
                    ccf.query_batch_prehashed(chunk, pred)
                })
            });
        }

        if plant_fault && !survivors.is_empty() {
            survivors.clear();
            survivors.push(u64::MAX);
        }
        pass.m_predicate += probe_keys.len() as u64;
        pass.m_ccf += survivors.len() as u64;
        let surviving: HashSet<u64> = survivors.into_iter().collect();
        for k in probe_keys.iter().filter(|k| inst.exact_binned.contains(k)) {
            pass.m_exact_binned += 1;
            pass.lost += u64::from(!surviving.contains(k));
        }
    }
    (pass, times)
}

pub fn run(ctx: &Ctx) -> (Report, Vec<Span>) {
    let mut report = Report::default();
    let scale = ctx.pick(64, 1024);

    // Inputs and exact semijoins, before anything is timed. JOB-light is a fixed
    // benchmark: the database, the query set, the banks' hash functions and the
    // rows the write passes evict are the same on every run (redrawing any of them
    // per seed moved the accuracy or the write rates by a third). The seed orders
    // the instances within a scan pass.
    let db = SyntheticImdb::generate(scale, JOB_LIGHT_SEED);
    let workload = JobLightWorkload::generate(&db, JOB_LIGHT_SEED);
    let mut instances = Vec::new();
    for query in &workload.queries {
        if query.tables.len() < 2 {
            continue;
        }
        for base in &query.tables {
            let Some(exact_binned) = exact_semijoin_keys(&db, query, base, true) else {
                continue;
            };
            let others = query
                .other_tables(base.table)
                .into_iter()
                .map(|qt| (qt.table, ccf_predicate_for(qt)))
                .collect();
            instances.push(Instance {
                base: base.clone(),
                others,
                exact_binned,
            });
        }
    }
    instances.shuffle(&mut StdRng::seed_from_u64(ctx.seed ^ 0x10b));
    // Rows whose (key, stored attributes) is unique in their table: evicting one
    // removes exactly that row, so the write passes cannot hit a shared copy.
    let mut unique_rows: Vec<(usize, u64, Vec<u64>)> = Vec::new();
    let mut lost = 0u64;
    for (ti, &id) in TableId::ALL.iter().enumerate() {
        let table = db.table(id);
        let mut seen: std::collections::HashMap<(u64, Vec<u64>), usize> = Default::default();
        for row in 0..table.num_rows() {
            *seen
                .entry((table.join_keys[row], ccf_attrs_for_row(table, row)))
                .or_default() += 1;
        }
        unique_rows.extend(
            seen.into_iter()
                .filter(|(_, n)| *n == 1)
                .map(|((k, a), _)| (ti, k, a)),
        );
    }
    unique_rows.sort_unstable();
    unique_rows.shuffle(&mut StdRng::seed_from_u64(JOB_LIGHT_SEED));
    unique_rows.truncate(ctx.pick(WRITE_CHUNKS * BATCH, 5_000));
    report.note(format!(
        "synthetic IMDB at scale 1/{scale}: {} rows, {} JOB-light instances, Chained large bank",
        db.total_rows(),
        instances.len()
    ));

    // Setup three times, each bank with its own hash functions; memory from the
    // first. After each build an untimed pass over every instance measures that
    // bank's accuracy (a false-positive key lets all of its base rows through, so
    // one bank's FPR is lumpy; the metrics take the median bank). The last pass
    // is also the warm-up of the bank the timed phase measures.
    let telemetry = if ctx.trace {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let off = Telemetry::disabled();
    let mut setup_s = Vec::new();
    let mut mem_bits = 0.0;
    let (mut fprs, mut reductions) = (Vec::new(), Vec::new());
    let mut bank = None;
    for rep in 0..3u64 {
        drop(bank.take());
        let rss = report::rss_bytes();
        let t = Instant::now();
        let b = build(
            &db,
            JOB_LIGHT_SEED.wrapping_mul(3).wrapping_add(rep),
            if rep == 2 { &telemetry } else { &off },
        );
        setup_s.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            mem_bits = report::bits_per_row(rss, report::rss_bytes(), db.total_rows());
        }
        report.check(
            format!(
                "setup {rep} absorbed every row ({} failed)",
                b.total_failed_rows()
            ),
            b.total_failed_rows() == 0,
        );
        let (warm, _) = scan_pass(&db, &b, &instances, &mut Vec::new(), ctx.plant_fault);
        report.note(format!(
            "bank {rep}: m_predicate {}, m_exact_binned {}, m_ccf {}",
            warm.m_predicate, warm.m_exact_binned, warm.m_ccf
        ));
        report.check(
            format!(
                "bank {rep}: every exact-binned survivor survives CCF probing ({} lost of {})",
                warm.lost, warm.m_exact_binned
            ),
            warm.lost == 0,
        );
        let excess = warm.m_ccf.saturating_sub(warm.m_exact_binned) as f64;
        let rejectable = warm.m_predicate.saturating_sub(warm.m_exact_binned).max(1) as f64;
        fprs.push(excess / rejectable);
        reductions.push(warm.m_ccf as f64 / warm.m_predicate.max(1) as f64);
        lost += warm.lost;
        bank = Some(b);
    }
    let mut bank = bank.expect("three setups ran");

    // Timed phase: a fixed number of filtered-scan passes, then a fixed number of
    // write passes, each evicting and re-inserting the same chunks of rows.
    let scan_passes = report::budget(ctx.seconds, SCAN_PASSES_PER_S, 3);
    let write_passes = report::budget(ctx.seconds, WRITE_PASSES_PER_S, 4);
    let cpu0 = report::cpu_seconds();
    let wall0 = Instant::now();
    let mut passes = Vec::new();
    let mut instance_times: Vec<Vec<InstanceTimes>> = vec![Vec::new(); instances.len()];
    let mut latencies = Vec::new();
    let (mut plain_pass_s, mut traced_pass_s) = (Vec::new(), Vec::new());
    for p in 0..scan_passes {
        let traced = ctx.trace && p % 2 == 1;
        trace::set_enabled(traced, 0);
        let mut pass_latencies = Vec::new();
        let (pass, times) = scan_pass(&db, &bank, &instances, &mut pass_latencies, false);
        trace::set_enabled(false, 0);
        for (all, t) in instance_times.iter_mut().zip(times) {
            all.push(t);
        }
        let pass_s = pass.pred_s + pass.key_s + pass.ccf_s;
        if traced {
            traced_pass_s.push(pass_s);
        } else {
            plain_pass_s.push(pass_s);
        }
        latencies.push(pass_latencies);
        passes.push(pass);
    }
    let (mut delete_s, mut insert_s) = (Vec::new(), Vec::new());
    let (mut delete_misses, mut insert_failures) = (0u64, 0u64);
    for p in 0..write_passes {
        trace::set_enabled(ctx.trace && p % 2 == 1, 0);
        let (mut pass_delete_s, mut pass_insert_s) = (Vec::new(), Vec::new());
        for chunk in unique_rows.chunks(BATCH) {
            let t = Instant::now();
            for (ti, key, attrs) in chunk {
                let id = bank.tables[*ti].table;
                let evicted = span("ccf-join.evict_row", 1, || bank.evict_row(id, *key, attrs));
                delete_misses += u64::from(!matches!(evicted, Ok(true)));
            }
            pass_delete_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            for (ti, key, attrs) in chunk {
                let t = &mut bank.tables[*ti];
                let inserted = span("ccf-core.insert_row_prehashed", 1, || {
                    t.ccf.insert_row_prehashed(*key, attrs)
                });
                insert_failures += u64::from(inserted.is_err());
                if !t.key_filter.contains(*key) {
                    insert_failures += u64::from(t.key_filter.insert(*key).is_err());
                }
            }
            pass_insert_s.push(t.elapsed().as_secs_f64());
        }
        trace::set_enabled(false, 0);
        delete_s.push(pass_delete_s);
        insert_s.push(pass_insert_s);
    }
    let wall_s = wall0.elapsed().as_secs_f64();
    let cpu_s = report::cpu_seconds() - cpu0;

    let rows_written = (write_passes * unique_rows.len()) as u64;
    report.attempted = passes
        .iter()
        .map(|p| p.rows + p.key_keys + p.ccf_keys)
        .sum::<u64>()
        + 2 * rows_written;
    report.failed = delete_misses + insert_failures;
    report.note(format!(
        "{scan_passes} scan passes, {write_passes} write passes of {} rows evicted and \
         re-inserted, {delete_misses} delete misses",
        unique_rows.len()
    ));

    // Each instance's time is the lower decile of its times over the passes, so
    // a pass slowed by another tenant of the host does not count; a pass's items
    // are the same every pass.
    let instance_s = |part: usize| -> f64 {
        instance_times
            .iter()
            .map(|t| report::fast_time(&t.iter().map(|x| x[part]).collect::<Vec<_>>()))
            .sum()
    };
    let (pred_s, key_s, ccf_s) = (instance_s(0), instance_s(1), instance_s(2));
    let first = passes.first().copied().unwrap_or_default();
    report.set("setup_s", median(&setup_s));
    report.set("scan_mrows", report::mops(first.rows, pred_s + ccf_s));
    report.set("query_mops", report::mops(first.ccf_keys, ccf_s));
    report.set("contains_mops", report::mops(first.key_keys, key_s));
    let written = unique_rows.len() as u64;
    report.set("insert_mops", report::pass_mops(written, &insert_s));
    report.set("delete_mops", report::pass_mops(written, &delete_s));
    report::record_latency(&mut report, &report::item_fast_times(&latencies), 1);
    report.set("mem_bits_per_row", mem_bits);
    report.set("fpr", median(&fprs));
    report.set("join_reduction", median(&reductions));

    let mut spans = Vec::new();
    if ctx.trace {
        let (s, dropped) = trace::take();
        spans = s;
        report.note(format!("{dropped} spans dropped"));
        let totals = trace::totals(&spans);
        let per = |name: &str| totals.get(name).map_or(0.0, |t| t.ns_per_item());
        let query_ns = per("ccf-core.query_batch_prehashed");
        let contains_ns = per("ccf-cuckoo.contains_key_batch_prehashed");
        report.set("ccf-cuckoo.contains_ns_per_key", contains_ns);
        report.set("ccf-core.query_ns_per_key", query_ns);
        report.set("ccf-core.match_ns_per_key", query_ns - contains_ns);
        report.set(
            "ccf-core.insert_ns_per_row",
            per("ccf-core.insert_row_prehashed"),
        );
        report.set(
            "ccf-join.pred_eval_ns_per_row",
            per("ccf-join.row_matches_table_predicates"),
        );
        report.set("ccf-join.ccf_probe_ns_per_key", per("ccf-join.ccf_probe"));
        let scanned: u64 = passes.iter().map(|p| p.rows).sum();
        let probed: u64 = passes.iter().map(|p| p.ccf_keys).sum();
        report.set(
            "ccf-join.probes_per_row",
            probed as f64 / scanned.max(1) as f64,
        );
        let (occupied, capacity) = bank.tables.iter().fold((0, 0), |(o, c), t| {
            let occ = t.ccf.occupancy();
            (o + occ.occupied, c + occ.capacity())
        });
        report.set(
            "ccf-cuckoo.load_factor",
            occupied as f64 / capacity.max(1) as f64,
        );
        let grows: u32 = bank
            .tables
            .iter()
            .map(|t| t.ccf.growth_stats().growth_bits)
            .sum();
        report.set("ccf-cuckoo.grows", f64::from(grows));
        let spaces: Vec<(usize, usize, usize)> =
            bank.tables.iter().map(|t| space_of(&t.ccf)).collect();
        set_space_metrics(&mut report, &spaces);
        report::set_telemetry_metrics(&mut report, &telemetry);
        report.set("ccf-core.insert_failures", insert_failures as f64);
        report.set("ccf-core.delete_misses", delete_misses as f64);
        report.set("ccf-core.live_false_negatives", lost as f64);
        report.set("proc.cpu_s_per_s", cpu_s / wall_s);
        report.set(
            "trace.overhead_ratio",
            report::overhead_ratio(&traced_pass_s, &plain_pass_s),
        );
        crate::finish_trace(&mut report, &spans);
    }
    (report, spans)
}
