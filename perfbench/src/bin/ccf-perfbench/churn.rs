//! `churn_strkeys`: writes beside reads, with string keys and a sharded filter.
//!
//! A 4-shard Chained `ShardedCcf` on 2 worker threads holds a sliding window of
//! about 50k live rows (small enough for L2). Keys are strings drawn from a
//! Zipf-hot keyspace, so lookup3 key lowering is paid on every call and hot keys
//! keep several rows live (chains). Each step inserts the arrivals, deletes the
//! rows leaving the window, then runs a predicate query batch and a key-only
//! batch. Chained-delete casualties (live rows lost because keys share a
//! fingerprint) are counted as failures, not treated as a broken run.

use std::collections::VecDeque;
use std::time::Instant;

use ccf_core::{
    AnyCcf, CcfBuilder, CcfParams, ConditionalFilter, FilterKey, Predicate, VariantKind,
};
use ccf_hash::SaltedHasher;
use ccf_shard::{ShardRouter, ShardedCcf};
use ccf_telemetry::Telemetry;
use ccf_workloads::ZipfMandelbrot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::probes::{Accuracy, BATCH};
use crate::report::{self, median, round_mops, set_space_metrics, space_of, Report};
use crate::trace::{self, span, Span};
use crate::Ctx;

const SHARDS: usize = 4;
const THREADS: usize = 2;
/// Column 0 is a row category the query predicates select on.
const CATEGORIES: u64 = 8;
/// Column 1 is the key's arrival number modulo this, which keeps the live rows of
/// one key distinct (a hot key has far fewer live rows than this).
const SEQ_MOD: u64 = 251;
/// Steps per timed round (a round's throughput is one sample of the rate).
const ROUND_STEPS: usize = 8;
/// Timed rounds per second of `--seconds` (one round takes about 10 ms).
const ROUNDS_PER_S: f64 = 100.0;
/// Seed of the arrival stream and of the filter's hash functions (see `run`).
const DATA_SEED: u64 = 7;
/// Setups per run.
const SETUPS: usize = 21;
/// Untimed warm-up steps, each replayed per key for the correctness check.
const WARMUP_STEPS: usize = 24;

type StrRow = (String, [u64; 2]);

/// One step's inputs, generated before the step is timed.
struct Step {
    arrivals: Vec<StrRow>,
    expirations: Vec<StrRow>,
    pred: Predicate,
    query_keys: Vec<String>,
    query_truth: Vec<bool>,
    contains_keys: Vec<String>,
    contains_truth: Vec<bool>,
}

/// The sliding window and everything needed to draw probes with ground truth.
/// Arrivals come from `DATA_SEED`, the same on every run; probes from the run's
/// seed.
struct Window {
    probe_seed: u64,
    window: usize,
    zipf: ZipfMandelbrot,
    arrival_rng: StdRng,
    probe_rng: StdRng,
    arrivals_of: Vec<u64>,
    live: VecDeque<(u32, [u64; 2])>,
    /// Live rows per key and category.
    live_by_category: Vec<[u32; CATEGORIES as usize]>,
    next_absent: u64,
    steps: u64,
}

impl Window {
    fn new(probe_seed: u64, window: usize, keyspace: u64) -> Self {
        Self {
            probe_seed,
            window,
            zipf: ZipfMandelbrot::new(0.5, 2.7, keyspace),
            arrival_rng: StdRng::seed_from_u64(DATA_SEED),
            probe_rng: StdRng::seed_from_u64(probe_seed ^ 0xC4_0115),
            arrivals_of: vec![0; keyspace as usize],
            live: VecDeque::with_capacity(window + BATCH),
            live_by_category: vec![[0; CATEGORIES as usize]; keyspace as usize],
            next_absent: 0,
            steps: 0,
        }
    }

    fn key(&self, id: u32) -> String {
        format!("user-{id:07}")
    }

    fn row(&self, id: u32, attrs: [u64; 2]) -> StrRow {
        (self.key(id), attrs)
    }

    /// One arrival; returns it and the row it pushed out of the window, if any.
    fn arrive(&mut self) -> (StrRow, Option<StrRow>) {
        let id = (self.zipf.sample(&mut self.arrival_rng) - 1) as u32;
        let seq = self.arrivals_of[id as usize];
        self.arrivals_of[id as usize] += 1;
        let attrs = [self.arrival_rng.gen_range(0..CATEGORIES), seq % SEQ_MOD];
        self.live.push_back((id, attrs));
        self.live_by_category[id as usize][attrs[0] as usize] += 1;
        let expired = (self.live.len() > self.window).then(|| {
            let (old, old_attrs) = self.live.pop_front().expect("window is non-empty");
            self.live_by_category[old as usize][old_attrs[0] as usize] -= 1;
            self.row(old, old_attrs)
        });
        (self.row(id, attrs), expired)
    }

    fn random_live(&mut self) -> (u32, [u64; 2]) {
        self.live[self.probe_rng.gen_range(0..self.live.len())]
    }

    fn absent(&mut self) -> String {
        self.next_absent += 1;
        format!("s{}-absent-{:07}", self.probe_seed, self.next_absent)
    }

    fn step(&mut self) -> Step {
        let mut arrivals = Vec::with_capacity(BATCH);
        let mut expirations = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            let (row, expired) = self.arrive();
            arrivals.push(row);
            expirations.extend(expired);
        }
        // Categories in turn, so every run queries the same predicate mix.
        self.steps += 1;
        let category = self.steps % CATEGORIES;
        let (mut query_keys, mut query_truth) = (Vec::new(), Vec::new());
        for i in 0..BATCH {
            let (key, truth) = match i % 4 {
                // A live row of the queried category.
                0 | 1 => {
                    let (mut id, mut attrs) = self.random_live();
                    for _ in 0..64 {
                        if attrs[0] == category {
                            break;
                        }
                        (id, attrs) = self.random_live();
                    }
                    (
                        self.key(id),
                        self.live_by_category[id as usize][category as usize] > 0,
                    )
                }
                // A live key, preferably one with no live row of that category.
                2 => {
                    let (mut id, _) = self.random_live();
                    for _ in 0..64 {
                        if self.live_by_category[id as usize][category as usize] == 0 {
                            break;
                        }
                        id = self.random_live().0;
                    }
                    (
                        self.key(id),
                        self.live_by_category[id as usize][category as usize] > 0,
                    )
                }
                _ => (self.absent(), false),
            };
            query_keys.push(key);
            query_truth.push(truth);
        }
        let (mut contains_keys, mut contains_truth) = (Vec::new(), Vec::new());
        for i in 0..BATCH {
            if i % 2 == 0 {
                let id = self.random_live().0;
                contains_keys.push(self.key(id));
                contains_truth.push(true);
            } else {
                contains_keys.push(self.absent());
                contains_truth.push(false);
            }
        }
        Step {
            arrivals,
            expirations,
            pred: Predicate::any(2).and_eq(0, category),
            query_keys,
            query_truth,
            contains_keys,
            contains_truth,
        }
    }
}

/// Per-shard `AnyCcf`s driven one key at a time: the sequential reference the
/// sharded batch answers must equal, and (traced) the per-row core write costs.
struct Replay {
    shards: Vec<AnyCcf>,
    router: ShardRouter,
    hasher: SaltedHasher,
}

impl Replay {
    fn new(params: CcfParams, router: ShardRouter) -> Self {
        let shards: Vec<AnyCcf> = (0..SHARDS)
            .map(|_| AnyCcf::try_new(VariantKind::Chained, params).expect("valid params"))
            .collect();
        let hasher = shards[0].key_lower_hasher();
        Self {
            shards,
            router,
            hasher,
        }
    }

    fn shard(&mut self, key: &str) -> (u64, &mut AnyCcf) {
        let k = key.lower(&self.hasher);
        (k, &mut self.shards[self.router.shard_of(k)])
    }

    fn insert(&mut self, rows: &[StrRow]) -> Vec<String> {
        span("ccf-core.insert_row_prehashed", rows.len() as u64, || {
            rows.iter()
                .map(|(key, attrs)| {
                    let (k, f) = self.shard(key);
                    format!("{:?}", f.insert_row_prehashed(k, attrs))
                })
                .collect()
        })
    }

    fn delete(&mut self, rows: &[StrRow]) -> Vec<String> {
        span("ccf-core.delete_row_prehashed", rows.len() as u64, || {
            rows.iter()
                .map(|(key, attrs)| {
                    let (k, f) = self.shard(key);
                    format!("{:?}", f.delete_row_prehashed(k, attrs))
                })
                .collect()
        })
    }

    fn query(&mut self, keys: &[String], pred: &Predicate) -> Vec<bool> {
        keys.iter()
            .map(|key| {
                let (k, f) = self.shard(key);
                f.query_prehashed(k, pred)
            })
            .collect()
    }

    fn contains(&mut self, keys: &[String]) -> Vec<bool> {
        keys.iter()
            .map(|key| {
                let (k, f) = self.shard(key);
                f.contains_key_prehashed(k)
            })
            .collect()
    }
}

fn params(window: usize) -> CcfParams {
    CcfBuilder::new()
        .variant(VariantKind::Chained)
        .num_attrs(2)
        .expected_rows(window.div_ceil(SHARDS))
        .auto_grow()
        .seed(DATA_SEED)
        .storage_from_env()
        .expect("CCF_STORAGE was validated at startup")
        .build_params()
        .expect("valid chained parameters")
}

fn build(params: CcfParams, fill: &[StrRow], telemetry: &Telemetry) -> (ShardedCcf, u64) {
    let mut sharded = ShardedCcf::try_new(VariantKind::Chained, params, SHARDS)
        .expect("valid sharded parameters")
        .with_threads(THREADS);
    if telemetry.is_enabled() {
        sharded.attach_telemetry(telemetry, &[]);
    }
    let failures = fill
        .chunks(BATCH)
        .map(|chunk| {
            sharded
                .insert_batch(chunk)
                .iter()
                .filter(|r| r.is_err())
                .count() as u64
        })
        .sum();
    (sharded, failures)
}

/// Step outcome tallies.
#[derive(Default)]
struct Tally {
    acc: Accuracy,
    insert_failures: u64,
    delete_misses: u64,
    contains_false_negatives: u64,
}

/// Per-step op times: insert, delete, query, contains.
struct StepTimes([f64; 4]);

fn run_step(
    sharded: &ShardedCcf,
    step: &Step,
    tally: &mut Tally,
) -> (StepTimes, Vec<bool>, Vec<bool>, Vec<String>, Vec<String>) {
    let t = Instant::now();
    let inserted = span("ccf-shard.insert_batch", step.arrivals.len() as u64, || {
        sharded.insert_batch(&step.arrivals)
    });
    let t_ins = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let deleted = span(
        "ccf-shard.delete_row_batch",
        step.expirations.len() as u64,
        || sharded.delete_row_batch(&step.expirations),
    );
    let t_del = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let answers = span(
        "ccf-shard.query_batch",
        step.query_keys.len() as u64,
        || sharded.query_batch(&step.query_keys, &step.pred),
    );
    let t_q = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let contained = span(
        "ccf-shard.contains_key_batch",
        step.contains_keys.len() as u64,
        || sharded.contains_key_batch(&step.contains_keys),
    );
    let t_c = t.elapsed().as_secs_f64();
    tally.insert_failures += inserted.iter().filter(|r| r.is_err()).count() as u64;
    tally.delete_misses += deleted.iter().filter(|r| !matches!(r, Ok(true))).count() as u64;
    tally.acc.add(&answers, &step.query_truth);
    let mut key_acc = Accuracy::default();
    key_acc.add(&contained, &step.contains_truth);
    tally.contains_false_negatives += key_acc.false_negatives;
    let ins: Vec<String> = inserted.iter().map(|r| format!("{r:?}")).collect();
    let del: Vec<String> = deleted.iter().map(|r| format!("{r:?}")).collect();
    (
        StepTimes([t_ins, t_del, t_q, t_c]),
        answers,
        contained,
        ins,
        del,
    )
}

/// Layer probes for a traced batch, outside the op timing: key lowering, routing,
/// and the same query run shard by shard on one thread via `with_shard`.
pub struct LayerProbe {
    pub seq_query_s: f64,
    pub shard_keys: Vec<u64>,
}

pub fn probe_layers<K: FilterKey>(
    sharded: &ShardedCcf,
    keys: &[K],
    pred: &Predicate,
) -> LayerProbe {
    let hasher = sharded.key_lower_hasher();
    let n = keys.len() as u64;
    let lowered = span("ccf-hash.lower_batch", n, || {
        K::lower_batch(keys, &hasher).into_owned()
    });
    let part = span("ccf-shard.partition", n, || {
        sharded.router().partition(&lowered)
    });
    let t = Instant::now();
    let per_shard: Vec<Vec<bool>> = part
        .chunks
        .iter()
        .enumerate()
        .map(|(s, chunk)| {
            sharded.with_shard(s, |f| {
                span("ccf-core.query_batch_prehashed", chunk.len() as u64, || {
                    f.query_batch_prehashed(chunk, pred)
                })
            })
        })
        .collect();
    let seq_query_s = t.elapsed().as_secs_f64();
    for (s, chunk) in part.chunks.iter().enumerate() {
        sharded.with_shard(s, |f| {
            span(
                "ccf-cuckoo.contains_key_batch_prehashed",
                chunk.len() as u64,
                || std::hint::black_box(f.contains_key_batch_prehashed(chunk)),
            )
        });
    }
    std::hint::black_box(span("ccf-shard.scatter", n, || {
        part.scatter(&per_shard, lowered.len())
    }));
    LayerProbe {
        seq_query_s,
        shard_keys: part.chunks.iter().map(|c| c.len() as u64).collect(),
    }
}

/// Shard-layer metrics from accumulated layer probes.
pub fn set_shard_metrics(
    report: &mut Report,
    sharded: &ShardedCcf,
    seq_query_s: f64,
    batch_query_s: f64,
    shard_keys: &[u64],
) {
    report.set(
        "ccf-shard.parallel_speedup",
        seq_query_s / batch_query_s.max(1e-12),
    );
    report.set("ccf-shard.load_imbalance", sharded.stats().load_imbalance());
    let keys_total: u64 = shard_keys.iter().sum();
    report.set(
        "ccf-shard.max_shard_probe_share",
        shard_keys.iter().copied().max().unwrap_or(0) as f64 / keys_total.max(1) as f64,
    );
    let spaces: Vec<(usize, usize, usize)> = (0..sharded.num_shards())
        .map(|s| sharded.with_shard(s, space_of))
        .collect();
    set_space_metrics(report, &spaces);
}

pub fn run(ctx: &Ctx) -> (Report, Vec<Span>) {
    let mut report = Report::default();
    let window = ctx.pick(50_000, 2_000);
    let keyspace = window as u64;

    // Inputs: the initial window and the warm-up steps, before anything is timed.
    // The arrival stream and the filter's hash functions are the same on every
    // run: which string keys share a fingerprint decides the chained-delete
    // casualties and the false positives they leave behind, and redrawing them
    // per seed moved `fpr` by a third between runs. The seed draws the probes.
    let mut gen = Window::new(ctx.seed, window, keyspace);
    let fill: Vec<StrRow> = (0..window).map(|_| gen.arrive().0).collect();
    let warmup: Vec<Step> = (0..WARMUP_STEPS).map(|_| gen.step()).collect();
    report.note(format!(
        "{SHARDS}-shard Chained ShardedCcf on {THREADS} threads, {window} live string-keyed rows, \
         Zipf keyspace of {keyspace}"
    ));

    // Setup is short (tens of ms), so it runs SETUPS times and reports the median;
    // memory from the first, the last one is measured.
    let telemetry = if ctx.trace {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let off = Telemetry::disabled();
    let p = params(window);
    let mut setup_s = Vec::new();
    let mut mem_bits = 0.0;
    let mut sharded = None;
    for rep in 0..SETUPS {
        drop(sharded.take());
        let rss = report::rss_bytes();
        let t = Instant::now();
        let (s, failures) = build(p, &fill, if rep + 1 == SETUPS { &telemetry } else { &off });
        setup_s.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            mem_bits = report::bits_per_row(rss, report::rss_bytes(), fill.len());
        }
        report.check(
            format!("setup {rep} inserted every row ({failures} failures)"),
            failures == 0,
        );
        sharded = Some(s);
    }
    let sharded = sharded.expect("SETUPS is positive");

    // Warm-up, untimed: every step is replayed one key at a time on per-shard
    // filters, and every outcome and answer must match the 2-thread batches.
    let mut replay = Replay::new(p, *sharded.router());
    replay.insert(&fill);
    let mut mismatches = 0usize;
    let mut warm = Tally::default();
    for step in &warmup {
        let (_, mut answers, contained, ins, del) = run_step(&sharded, step, &mut warm);
        if ctx.plant_fault && mismatches == 0 {
            answers[0] = !answers[0];
        }
        mismatches += usize::from(replay.insert(&step.arrivals) != ins);
        mismatches += usize::from(replay.delete(&step.expirations) != del);
        mismatches += usize::from(replay.query(&step.query_keys, &step.pred) != answers);
        mismatches += usize::from(replay.contains(&step.contains_keys) != contained);
    }
    report.check(
        format!(
            "{WARMUP_STEPS} steps of 2-thread sharded batches equal a sequential per-key \
             replay ({mismatches} mismatching calls)"
        ),
        mismatches == 0,
    );

    // Timed phase.
    let cpu0 = report::cpu_seconds();
    let wall0 = Instant::now();
    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    let mut rounds: [Vec<(u64, f64)>; 4] = Default::default();
    let (mut plain_round_s, mut traced_round_s) = (Vec::new(), Vec::new());
    let (mut batch_query_s, mut seq_query_s) = (0.0, 0.0);
    let mut shard_keys = [0u64; SHARDS];
    let mut total_items = 0u64;
    let timed_rounds = report::budget(ctx.seconds, ROUNDS_PER_S, 8);
    for round_no in 0..timed_rounds {
        let traced = ctx.trace && round_no % 2 == 1;
        let mut sums = [(0u64, 0.0f64); 4];
        for _ in 0..ROUND_STEPS {
            let step = gen.step();
            trace::set_enabled(traced, 0);
            let (times, ..) = span("bench.step", 0, || run_step(&sharded, &step, &mut tally));
            trace::set_enabled(false, 0);
            let counts = [
                step.arrivals.len(),
                step.expirations.len(),
                step.query_keys.len(),
                step.contains_keys.len(),
            ];
            for i in 0..4 {
                sums[i].0 += counts[i] as u64;
                sums[i].1 += times.0[i];
            }
            latencies.push(times.0[2]);
            if ctx.trace {
                // The per-key replay follows every step so it stays identical;
                // only traced rounds record its spans.
                trace::set_enabled(traced, 0);
                replay.insert(&step.arrivals);
                replay.delete(&step.expirations);
                if traced {
                    let probe = probe_layers(&sharded, &step.query_keys, &step.pred);
                    seq_query_s += probe.seq_query_s;
                    batch_query_s += times.0[2];
                    for (total, n) in shard_keys.iter_mut().zip(&probe.shard_keys) {
                        *total += n;
                    }
                }
                trace::set_enabled(false, 0);
            }
        }
        let round_s: f64 = sums.iter().map(|s| s.1).sum();
        total_items += sums.iter().map(|s| s.0).sum::<u64>();
        if traced {
            traced_round_s.push(round_s);
        } else {
            plain_round_s.push(round_s);
        }
        for i in 0..4 {
            rounds[i].push(sums[i]);
        }
    }
    let wall_s = wall0.elapsed().as_secs_f64();
    let cpu_s = report::cpu_seconds() - cpu0;

    let live_fn = tally.acc.false_negatives + tally.contains_false_negatives;
    report.note(format!(
        "casualties: {} insert failures, {} delete misses, {} live-row false negatives",
        tally.insert_failures, tally.delete_misses, live_fn
    ));
    report.attempted = total_items;
    report.failed = tally.insert_failures + tally.delete_misses + live_fn;

    let rates: Vec<(u64, f64)> = rounds
        .iter()
        .map(|r| (r.iter().map(|x| x.0).sum(), round_mops(r)))
        .collect();
    report.set("setup_s", median(&setup_s));
    report.set("insert_mops", rates[0].1);
    report.set("delete_mops", rates[1].1);
    report.set("query_mops", rates[2].1);
    report.set("contains_mops", rates[3].1);
    report.set("scan_mrows", report::combined_mops(&rates));
    report::record_latency(&mut report, &latencies, 16);
    report.set("mem_bits_per_row", mem_bits);
    report.set("fpr", tally.acc.fpr());
    report.set("join_reduction", tally.acc.pass_ratio());

    let mut spans = Vec::new();
    if ctx.trace {
        let (s, dropped) = trace::take();
        spans = s;
        report.note(format!("{dropped} spans dropped"));
        let totals = trace::totals(&spans);
        let per = |name: &str| totals.get(name).map_or(0.0, |t| t.ns_per_item());
        let query_ns = per("ccf-core.query_batch_prehashed");
        let contains_ns = per("ccf-cuckoo.contains_key_batch_prehashed");
        report.set("ccf-hash.lower_ns_per_key", per("ccf-hash.lower_batch"));
        report.set("ccf-cuckoo.contains_ns_per_key", contains_ns);
        report.set("ccf-core.query_ns_per_key", query_ns);
        report.set("ccf-core.match_ns_per_key", query_ns - contains_ns);
        report.set(
            "ccf-core.insert_ns_per_row",
            per("ccf-core.insert_row_prehashed"),
        );
        report.set(
            "ccf-core.delete_ns_per_row",
            per("ccf-core.delete_row_prehashed"),
        );
        report.set(
            "ccf-shard.route_ns_per_key",
            per("ccf-shard.partition") + per("ccf-shard.scatter"),
        );
        set_shard_metrics(
            &mut report,
            &sharded,
            seq_query_s,
            batch_query_s,
            &shard_keys,
        );
        let stats = sharded.stats();
        report.set("ccf-cuckoo.load_factor", stats.load_factor());
        report.set("ccf-cuckoo.grows", f64::from(stats.total_doublings()));
        report::set_telemetry_metrics(&mut report, &telemetry);
        report.set("ccf-core.insert_failures", tally.insert_failures as f64);
        report.set("ccf-core.delete_misses", tally.delete_misses as f64);
        report.set("ccf-core.live_false_negatives", live_fn as f64);
        report.set("proc.cpu_s_per_s", cpu_s / wall_s);
        report.set(
            "trace.overhead_ratio",
            report::overhead_ratio(&traced_round_s, &plain_round_s),
        );
        crate::finish_trace(&mut report, &spans);
    }
    (report, spans)
}
