//! `inproc_read`: the single-filter read path on a working set far beyond cache.
//!
//! One Chained `AnyCcf` holds about 1M rows of a Zipf-duplicate multiset (2
//! attributes, `u64` keys). It is sized for half the rows with `auto_grow`, so
//! setup includes doublings. The timed phase makes passes of single-threaded
//! `query_batch` and `contains_key_batch` calls over a fixed probe pool (about
//! three quarters of the time), then passes deleting and re-inserting a fixed
//! sample of stored rows, so the write metrics describe the same large filter.

use std::time::Instant;

use ccf_core::{AnyCcf, ConditionalFilter, FilterKey, VariantKind};
use ccf_telemetry::Telemetry;
use ccf_workloads::{DuplicateDistribution, MultisetStream, Row};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::probes::{Accuracy, ContainsBatch, MultisetProbes, QueryBatch, BATCH};
use crate::report::{self, median, Report};
use crate::trace::{self, span, Span};
use crate::Ctx;

/// Generator seed of the stored multiset and of the filter's hash functions (see
/// `run`).
pub const DATA_SEED: u64 = 7;
/// Query batches, and contains batches, in the probe pool every read pass
/// covers (enough query batches for a p99 with ten samples beyond it).
const POOL: usize = 1024;
/// Query batches the accuracy metrics probe once, untimed: a fixed set drawn
/// from [`ACCURACY_SEED`], not from `--seed` (see `run`).
const ACCURACY_BATCHES: usize = 4096;
/// Seed of the accuracy metrics' probe batches.
const ACCURACY_SEED: u64 = 0xACC;
/// Read passes per second of `--seconds` (one pass takes about 0.5 s).
const READ_PASSES_PER_S: f64 = 1.5;
/// Chunks of [`BATCH`] stored rows that every write pass deletes and re-inserts.
const WRITE_CHUNKS: usize = 128;
/// Write passes per second of `--seconds` (one pass takes about 0.35 s).
const WRITE_PASSES_PER_S: f64 = 0.7;

/// Build the filter and insert every row; the span covers each insert chunk.
fn build(rows: &[Row], telemetry: &Telemetry) -> (AnyCcf, u64) {
    let mut builder = AnyCcf::builder()
        .variant(VariantKind::Chained)
        .num_attrs(2)
        .expected_rows(rows.len() / 2)
        .auto_grow()
        .seed(DATA_SEED)
        .storage_from_env()
        .expect("CCF_STORAGE was validated at startup");
    if telemetry.is_enabled() {
        builder = builder.telemetry(telemetry);
    }
    let mut filter = builder.build().expect("valid chained parameters");
    let mut failures = 0u64;
    for chunk in rows.chunks(BATCH) {
        span("ccf-core.insert_row_prehashed", chunk.len() as u64, || {
            for r in chunk {
                failures += u64::from(filter.insert_row_prehashed(r.key, &r.attrs).is_err());
            }
        });
    }
    (filter, failures)
}

/// One pass's times: each query batch, each contains batch, and (traced passes
/// only) each query batch's keys probed key-only.
struct ReadPass {
    query_keys: u64,
    query_s: Vec<f64>,
    contains_s: Vec<f64>,
    same_key_contains_s: f64,
}

/// One pass over every query batch and every contains batch, alternating. Traced
/// passes also probe the query keys key-only, to split query time into bucket
/// probe and entry match.
fn read_pass(
    filter: &AnyCcf,
    queries: &[QueryBatch],
    contains: &[ContainsBatch],
    acc: &mut Accuracy,
) -> ReadPass {
    let hasher = filter.key_lower_hasher();
    let traced = trace::is_enabled();
    let mut pass = ReadPass {
        query_keys: queries.iter().map(|q| q.keys.len() as u64).sum(),
        query_s: Vec::with_capacity(queries.len()),
        contains_s: Vec::with_capacity(contains.len()),
        same_key_contains_s: 0.0,
    };
    for (q, c) in queries.iter().zip(contains) {
        let n = q.keys.len() as u64;
        let t = Instant::now();
        let answers = span("bench.query_batch", n, || {
            let lowered = span("ccf-hash.lower_batch", n, || {
                u64::lower_batch(&q.keys, &hasher)
            });
            span("ccf-core.query_batch_prehashed", n, || {
                filter.query_batch_prehashed(&lowered, &q.pred)
            })
        });
        pass.query_s.push(t.elapsed().as_secs_f64());
        acc.add(&answers, &q.truth);
        if traced {
            let t = Instant::now();
            std::hint::black_box(filter.contains_key_batch_prehashed(&q.keys));
            pass.same_key_contains_s += t.elapsed().as_secs_f64();
        }

        let n = c.keys.len() as u64;
        let t = Instant::now();
        let answers = span("bench.contains_key_batch", n, || {
            let lowered = span("ccf-hash.lower_batch", n, || {
                u64::lower_batch(&c.keys, &hasher)
            });
            span("ccf-cuckoo.contains_key_batch_prehashed", n, || {
                filter.contains_key_batch_prehashed(&lowered)
            })
        });
        pass.contains_s.push(t.elapsed().as_secs_f64());
        // Key-only answers count toward false negatives, not the predicate FPR.
        let mut key_acc = Accuracy::default();
        key_acc.add(&answers, &c.truth);
        acc.false_negatives += key_acc.false_negatives;
    }
    pass
}

/// Write-pass outcome: per-chunk delete and insert seconds, delete misses,
/// insert failures.
struct WritePass {
    delete_s: Vec<f64>,
    insert_s: Vec<f64>,
    misses: u64,
    failures: u64,
}

/// Delete every chunk of stored rows, then insert it again, chunk by chunk.
fn write_pass(filter: &mut AnyCcf, chunks: &[Vec<Row>]) -> WritePass {
    let mut pass = WritePass {
        delete_s: Vec::with_capacity(chunks.len()),
        insert_s: Vec::with_capacity(chunks.len()),
        misses: 0,
        failures: 0,
    };
    for chunk in chunks {
        let n = chunk.len() as u64;
        let rows: Vec<(u64, &[u64])> = chunk.iter().map(|r| (r.key, r.attrs.as_slice())).collect();
        let t = Instant::now();
        let deleted = span("ccf-core.delete_row_batch_prehashed", n, || {
            filter.delete_row_batch_prehashed(&rows)
        });
        pass.delete_s.push(t.elapsed().as_secs_f64());
        pass.misses += deleted.iter().filter(|r| !matches!(r, Ok(true))).count() as u64;
        let t = Instant::now();
        span("ccf-core.insert_row_prehashed", n, || {
            for r in chunk {
                pass.failures += u64::from(filter.insert_row_prehashed(r.key, &r.attrs).is_err());
            }
        });
        pass.insert_s.push(t.elapsed().as_secs_f64());
    }
    pass
}

pub fn run(ctx: &Ctx) -> (Report, Vec<Span>) {
    let mut report = Report::default();
    let rows_n = ctx.pick(1_000_000, 20_000);

    // Inputs, generated before anything is timed. The stored multiset is the same
    // on every run: its few keys with hundreds of duplicates set much of the
    // query cost (their chains are long), and a different multiset per seed would
    // move the throughputs more than any bound allows. So are the filter's hash
    // functions, which decide which probes collide (redrawing them per seed moved
    // `fpr` by a tenth). The seed picks the probe batches and the written rows.
    let rows = MultisetStream::new(DuplicateDistribution::zipf_with_mean(3.0), 2, DATA_SEED)
        .generate(rows_n);
    let truth = MultisetProbes::new(&rows);
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x1b_0001);
    let queries = truth.query_batches(POOL, &mut rng);
    let contains: Vec<ContainsBatch> = (0..POOL).map(|_| truth.contains_batch(&mut rng)).collect();
    // The stored keys a predicate rejects differ in how likely they are to pass
    // (a key with many rows has long chains), so the FPR of one seed's probes
    // is lumpy and moved by a seventh between runs; the accuracy metrics use a
    // fixed probe set and so describe the filter on this data, like the other
    // workloads' accuracy metrics.
    let accuracy_batches =
        truth.query_batches(ACCURACY_BATCHES, &mut StdRng::seed_from_u64(ACCURACY_SEED));
    let mut picks: Vec<usize> = (0..rows.len()).collect();
    picks.shuffle(&mut rng);
    let write_chunks: Vec<Vec<Row>> = picks[..(WRITE_CHUNKS * BATCH).min(rows.len() / 2)]
        .chunks(BATCH)
        .map(|c| c.iter().map(|&i| rows[i].clone()).collect())
        .collect();
    report.note(format!(
        "{} rows over {} keys, 2 attributes, Chained, sized for half the rows",
        rows.len(),
        truth.distinct_keys()
    ));

    // Setup, three times; memory from the first, the last one is measured.
    let telemetry = Telemetry::disabled();
    let mut setup_s = Vec::new();
    let mut mem_bits = 0.0;
    let mut filter = None;
    for rep in 0..3 {
        drop(filter.take());
        let rss = report::rss_bytes();
        let t = Instant::now();
        let (f, failures) = build(&rows, &telemetry);
        setup_s.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            mem_bits = report::bits_per_row(rss, report::rss_bytes(), rows.len());
        }
        report.check(
            format!("setup {rep} inserted every row ({failures} failures)"),
            failures == 0,
        );
        filter = Some(f);
    }
    let mut filter = filter.expect("three setups ran");
    // The traced run measures a fourth, instrumented fill for the layer metrics.
    let telemetry = Telemetry::enabled();
    if ctx.trace {
        drop(filter);
        trace::set_enabled(true, 0);
        let (f, _) = build(&rows, &telemetry);
        trace::set_enabled(false, 0);
        filter = f;
    }
    let occupancy = filter.occupancy();
    let growth = filter.growth_stats();
    report.note(format!(
        "setup doubled the filter {} times; load factor {:.3}",
        growth.growth_bits,
        occupancy.load_factor()
    ));

    // Warm-up pass, untimed, also the first no-false-negative check; then the
    // accuracy probes, also untimed.
    let mut warm = Accuracy::default();
    read_pass(&filter, &queries, &contains, &mut warm);
    let hasher = filter.key_lower_hasher();
    let mut accuracy = Accuracy::default();
    for q in &accuracy_batches {
        let lowered = u64::lower_batch(&q.keys, &hasher);
        accuracy.add(&filter.query_batch_prehashed(&lowered, &q.pred), &q.truth);
    }

    // Timed phase: a fixed number of read passes over the probe pool, then a fixed
    // number of write passes over the write chunks. Every pass times the same
    // batches, so each batch's time is its lower decile over the passes.
    let read_passes = report::budget(ctx.seconds, READ_PASSES_PER_S, 4);
    let write_passes = report::budget(ctx.seconds, WRITE_PASSES_PER_S, 4);
    let cpu0 = report::cpu_seconds();
    let wall0 = Instant::now();
    let mut acc = Accuracy::default();
    let (mut query_s, mut contains_s) = (Vec::new(), Vec::new());
    let (mut plain_pass_s, mut traced_pass_s) = (Vec::new(), Vec::new());
    let (mut traced_query_s, mut traced_same_key_s, mut traced_keys) = (0.0, 0.0, 0u64);
    for p in 0..read_passes {
        let traced = ctx.trace && p % 2 == 1;
        trace::set_enabled(traced, 0);
        let pass = read_pass(&filter, &queries, &contains, &mut acc);
        trace::set_enabled(false, 0);
        let pass_query_s: f64 = pass.query_s.iter().sum();
        let pass_s = pass_query_s + pass.contains_s.iter().sum::<f64>();
        if traced {
            traced_pass_s.push(pass_s);
            traced_query_s += pass_query_s;
            traced_same_key_s += pass.same_key_contains_s;
            traced_keys += pass.query_keys;
        } else {
            plain_pass_s.push(pass_s);
        }
        query_s.push(pass.query_s);
        contains_s.push(pass.contains_s);
    }
    let read_only_missing = missing_rows(&filter, &rows);
    let (mut delete_s, mut insert_s) = (Vec::new(), Vec::new());
    let (mut delete_misses, mut insert_failures) = (0u64, 0u64);
    for p in 0..write_passes {
        trace::set_enabled(ctx.trace && p % 2 == 1, 0);
        let pass = write_pass(&mut filter, &write_chunks);
        trace::set_enabled(false, 0);
        delete_s.push(pass.delete_s);
        insert_s.push(pass.insert_s);
        delete_misses += pass.misses;
        insert_failures += pass.failures;
    }
    let wall_s = wall0.elapsed().as_secs_f64();
    let cpu_s = report::cpu_seconds() - cpu0;
    // Rows lost to the write passes (chained-delete casualties) are failures, not
    // a failed check: the read-only part is what must have no false negative.
    let missing_after_writes = missing_rows(&filter, &rows);
    report.note(format!(
        "{read_passes} read passes of {} query and {} contains batches ({:.2} s); \
         {write_passes} write passes of {} rows ({:.2} s)",
        queries.len(),
        contains.len(),
        query_s.iter().chain(&contains_s).flatten().sum::<f64>(),
        write_chunks.iter().map(Vec::len).sum::<usize>(),
        delete_s.iter().chain(&insert_s).flatten().sum::<f64>(),
    ));
    let pass_s: Vec<String> = query_s
        .iter()
        .zip(&contains_s)
        .map(|(q, c)| format!("{:.3}", q.iter().chain(c).sum::<f64>()))
        .collect();
    report.note(format!("read pass seconds: {}", pass_s.join(" ")));

    if ctx.plant_fault {
        warm.false_negatives += 1;
    }
    report.check(
        format!(
            "no false negative in the warm-up pass and the accuracy probes ({})",
            warm.false_negatives + accuracy.false_negatives
        ),
        warm.false_negatives + accuracy.false_negatives == 0,
    );
    report.check(
        format!(
            "no false negative in the timed reads ({})",
            acc.false_negatives
        ),
        acc.false_negatives == 0,
    );
    report.check(
        format!("every stored row answers its own predicate ({read_only_missing} missing)"),
        read_only_missing == 0,
    );
    report.note(format!(
        "{missing_after_writes} stored rows missing after the write passes"
    ));

    let query_keys: u64 = queries.iter().map(|q| q.keys.len() as u64).sum();
    let contains_keys: u64 = contains.iter().map(|c| c.keys.len() as u64).sum();
    let write_rows = write_chunks.iter().map(|c| c.len() as u64).sum::<u64>();
    report.attempted =
        read_passes as u64 * (query_keys + contains_keys) + write_passes as u64 * 2 * write_rows;
    report.failed = acc.false_negatives + delete_misses + insert_failures + missing_after_writes;

    let rates = [
        (query_keys, report::pass_mops(query_keys, &query_s)),
        (contains_keys, report::pass_mops(contains_keys, &contains_s)),
        (write_rows, report::pass_mops(write_rows, &insert_s)),
        (write_rows, report::pass_mops(write_rows, &delete_s)),
    ];
    report.set("setup_s", median(&setup_s));
    report.set("query_mops", rates[0].1);
    report.set("contains_mops", rates[1].1);
    report.set("insert_mops", rates[2].1);
    report.set("delete_mops", rates[3].1);
    report.set("scan_mrows", report::combined_mops(&rates));
    report::record_latency(&mut report, &report::item_fast_times(&query_s), 1);
    report.set("mem_bits_per_row", mem_bits);
    report.set("fpr", accuracy.fpr());
    report.set("join_reduction", accuracy.pass_ratio());

    let mut spans = Vec::new();
    if ctx.trace {
        let (s, dropped) = trace::take();
        spans = s;
        report.note(format!("{dropped} spans dropped"));
        let totals = trace::totals(&spans);
        let per = |name: &str| totals.get(name).map_or(0.0, |t| t.ns_per_item());
        report.set("ccf-hash.lower_ns_per_key", per("ccf-hash.lower_batch"));
        report.set(
            "ccf-cuckoo.contains_ns_per_key",
            per("ccf-cuckoo.contains_key_batch_prehashed"),
        );
        report.set(
            "ccf-core.query_ns_per_key",
            per("ccf-core.query_batch_prehashed"),
        );
        report.set(
            "ccf-core.match_ns_per_key",
            (traced_query_s - traced_same_key_s) * 1e9 / traced_keys.max(1) as f64,
        );
        report.set(
            "ccf-core.insert_ns_per_row",
            per("ccf-core.insert_row_prehashed"),
        );
        report.set(
            "ccf-core.delete_ns_per_row",
            per("ccf-core.delete_row_batch_prehashed"),
        );
        report.set("ccf-cuckoo.load_factor", occupancy.load_factor());
        report.set("ccf-cuckoo.grows", f64::from(growth.growth_bits));
        report::set_space_metrics(&mut report, &[report::space_of(&filter)]);
        report::set_telemetry_metrics(&mut report, &telemetry);
        report.set("ccf-core.insert_failures", insert_failures as f64);
        report.set("ccf-core.delete_misses", delete_misses as f64);
        report.set("ccf-core.live_false_negatives", acc.false_negatives as f64);
        report.set("proc.cpu_s_per_s", cpu_s / wall_s);
        report.set(
            "trace.overhead_ratio",
            report::overhead_ratio(&traced_pass_s, &plain_pass_s),
        );
        crate::finish_trace(&mut report, &spans);
    }
    (report, spans)
}

/// Stored rows that do not answer `true` to a predicate pinning their own values.
fn missing_rows(filter: &AnyCcf, rows: &[Row]) -> u64 {
    let mut missing = 0u64;
    for r in rows {
        let pred = r
            .attrs
            .iter()
            .enumerate()
            .fold(filter.predicate(), |p, (col, &v)| p.and_eq(col, v));
        missing += u64::from(!filter.query_prehashed(r.key, &pred));
    }
    missing
}
