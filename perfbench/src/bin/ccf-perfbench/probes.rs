//! Probe batches over a generated multiset of `u64`-keyed rows, with ground truth.
//!
//! Rows come from `ccf_workloads::MultisetStream`: every key has one or more
//! duplicates, and the i-th duplicate of every key carries the same attribute
//! vector. A predicate that pins both columns to one such vector therefore asks
//! "does this key have an i-th duplicate?". A query batch shares one predicate
//! (the filters' batch API takes one), and mixes keys that have that row, stored
//! keys that do not, and keys that were never inserted.

use std::collections::{HashMap, HashSet};

use ccf_core::Predicate;
use ccf_workloads::Row;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Keys per batch, for every workload.
pub const BATCH: usize = 512;

/// One predicate-query batch and the true answer for each key.
#[derive(Debug, Clone)]
pub struct QueryBatch {
    pub pred: Predicate,
    pub keys: Vec<u64>,
    pub truth: Vec<bool>,
}

/// One key-only batch and the true answer for each key.
#[derive(Debug, Clone)]
pub struct ContainsBatch {
    pub keys: Vec<u64>,
    pub truth: Vec<bool>,
}

/// One attribute vector shared by the same duplicate index of many keys.
struct Class {
    attrs: Vec<u64>,
    keys: Vec<u64>,
    members: HashSet<u64>,
}

/// Ground truth for drawing probe batches over a stored multiset.
pub struct MultisetProbes {
    keys: Vec<u64>,
    classes: Vec<Class>,
    /// Cumulative class weights (rows per class) for drawing a predicate.
    cumulative: Vec<usize>,
    absent_base: u64,
}

impl MultisetProbes {
    pub fn new(rows: &[Row]) -> Self {
        let mut by_attrs: HashMap<&[u64], Vec<u64>> = HashMap::new();
        for r in rows {
            by_attrs.entry(&r.attrs).or_default().push(r.key);
        }
        let mut keys: Vec<u64> = rows.iter().map(|r| r.key).collect();
        keys.sort_unstable();
        keys.dedup();
        // A class holding (almost) every key has no stored key that fails its
        // predicate; only classes leaving at least a tenth of the keys out qualify.
        let limit = keys.len() - keys.len() / 10;
        let mut classes: Vec<Class> = by_attrs
            .into_iter()
            .filter(|(_, k)| k.len() <= limit)
            .map(|(attrs, mut k)| {
                k.sort_unstable();
                Class {
                    attrs: attrs.to_vec(),
                    members: k.iter().copied().collect(),
                    keys: k,
                }
            })
            .collect();
        // Deterministic order (the map's is not).
        classes.sort_by(|a, b| a.attrs.cmp(&b.attrs));
        let mut total = 0;
        let cumulative = classes
            .iter()
            .map(|c| {
                total += c.keys.len();
                total
            })
            .collect();
        let absent_base = keys.last().copied().unwrap_or(0) + 1;
        Self {
            keys,
            classes,
            cumulative,
            absent_base,
        }
    }

    /// Number of distinct stored keys.
    pub fn distinct_keys(&self) -> usize {
        self.keys.len()
    }

    /// A key that was never inserted.
    pub fn absent_key(&self, rng: &mut StdRng) -> u64 {
        self.absent_base + rng.gen_range(0..1u64 << 40)
    }

    /// `count` query batches in random order. Predicates are spread over the
    /// duplicate classes in proportion to their rows (stratified, not sampled), so
    /// every seed's batches carry the same predicate mix.
    pub fn query_batches(&self, count: usize, rng: &mut StdRng) -> Vec<QueryBatch> {
        let total = self.cumulative.last().copied().unwrap_or(0);
        let mut batches: Vec<QueryBatch> = (0..count)
            .map(|b| {
                let pick = ((b as f64 + 0.5) / count as f64 * total as f64) as usize;
                self.query_batch(pick.min(total.saturating_sub(1)), rng)
            })
            .collect();
        batches.shuffle(rng);
        batches
    }

    /// A batch of [`BATCH`] keys under the predicate of the class holding row
    /// `pick` (in class order): ½ stored rows, ¼ stored keys without the
    /// predicate's row, ¼ absent keys, shuffled.
    fn query_batch(&self, pick: usize, rng: &mut StdRng) -> QueryBatch {
        let class = &self.classes[self.cumulative.partition_point(|&c| c <= pick)];
        let pred = class
            .attrs
            .iter()
            .enumerate()
            .fold(Predicate::any(class.attrs.len()), |p, (col, &v)| {
                p.and_eq(col, v)
            });
        let mut probes: Vec<(u64, bool)> = Vec::with_capacity(BATCH);
        for i in 0..BATCH {
            probes.push(match i % 4 {
                0 | 1 => (class.keys[rng.gen_range(0..class.keys.len())], true),
                2 => loop {
                    let k = self.keys[rng.gen_range(0..self.keys.len())];
                    if !class.members.contains(&k) {
                        break (k, false);
                    }
                },
                _ => (self.absent_key(rng), false),
            });
        }
        probes.shuffle(rng);
        QueryBatch {
            pred,
            keys: probes.iter().map(|p| p.0).collect(),
            truth: probes.iter().map(|p| p.1).collect(),
        }
    }

    /// A batch of [`BATCH`] keys: ½ stored, ½ absent, shuffled.
    pub fn contains_batch(&self, rng: &mut StdRng) -> ContainsBatch {
        let mut probes: Vec<(u64, bool)> = (0..BATCH)
            .map(|i| {
                if i % 2 == 0 {
                    (self.keys[rng.gen_range(0..self.keys.len())], true)
                } else {
                    (self.absent_key(rng), false)
                }
            })
            .collect();
        probes.shuffle(rng);
        ContainsBatch {
            keys: probes.iter().map(|p| p.0).collect(),
            truth: probes.iter().map(|p| p.1).collect(),
        }
    }
}

/// Answer accounting against ground truth.
#[derive(Debug, Default, Clone, Copy)]
pub struct Accuracy {
    pub positives: u64,
    pub false_negatives: u64,
    pub negatives: u64,
    pub false_positives: u64,
    pub passed: u64,
}

impl Accuracy {
    pub fn add(&mut self, answers: &[bool], truth: &[bool]) {
        for (&a, &t) in answers.iter().zip(truth) {
            if t {
                self.positives += 1;
                self.false_negatives += u64::from(!a);
            } else {
                self.negatives += 1;
                self.false_positives += u64::from(a);
            }
            self.passed += u64::from(a);
        }
    }

    pub fn merge(&mut self, other: &Accuracy) {
        self.positives += other.positives;
        self.false_negatives += other.false_negatives;
        self.negatives += other.negatives;
        self.false_positives += other.false_positives;
        self.passed += other.passed;
    }

    /// Share of true-negative probes answered `true`.
    pub fn fpr(&self) -> f64 {
        self.false_positives as f64 / self.negatives.max(1) as f64
    }

    /// Share of probed keys the filter let through.
    pub fn pass_ratio(&self) -> f64 {
        self.passed as f64 / (self.positives + self.negatives).max(1) as f64
    }
}
