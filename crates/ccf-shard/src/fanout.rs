//! The one fan-out pool every parallel path in the service layer shares.
//!
//! Batch queries, batch inserts and deletes, and the join-side bank build all need
//! the same shape: `n` independent items, up to `W` threads working on them, results
//! tagged with their item index so the caller can scatter them back. A
//! [`FanOutPool`] runs that shape on a fixed set of long-lived helper threads
//! instead of spawning threads per batch:
//!
//! * the **calling thread works too**: it claims items from the batch's shared atomic
//!   cursor and runs them itself, so a batch never waits for a helper to wake up;
//! * **helpers only take items nobody has claimed yet**, so a busy or slow-to-wake
//!   helper never delays a batch — the caller waits only for items already running
//!   on another thread;
//! * the **thread count is fixed** at pool construction: concurrent callers share
//!   the same helpers, so the process runs at most `callers + helpers` threads on
//!   batches no matter how many batches are in flight;
//! * **concurrent callers split the cores** instead of fighting over the helpers:
//!   with `c` callers sharing the pool lately, a batch recruits at most
//!   `(helpers + 1) / c − 1` helpers. As many callers as the pool has threads —
//!   the daemon's connections, say — run their batches on their own threads and
//!   wake no helper at all. A helper woken there finds no idle core: it adds a
//!   wake-up and a context switch per batch, and which connection it happens to
//!   help changes from run to run. On a busy 2-vCPU host that made the daemon's
//!   closed-loop throughput spread four times wider across runs than with no
//!   helper, at a lower median;
//! * **an item that would block waits its turn**: under
//!   [`FanOutPool::run_or_defer`] a thread puts off an item that cannot start
//!   without blocking (its shard lock is held by another batch) and comes back to
//!   it once no item is left unclaimed;
//! * **nested batches are safe**: an item may itself run a batch on the same pool.
//!   A thread only ever waits for items some other thread is actively running, and
//!   idle helpers are the only threads that pick up other callers' items, so no
//!   wait cycle can form.
//!
//! Items run in no fixed thread or order, so callers partition their work such that
//! items share no mutable state (per-shard chunks do) — results are then independent
//! of scheduling. Keeping the load-bearing concurrency in one type means one place
//! to reason about panics, thread counts and the sequential fast path.
//!
//! Everything here is safe code: helpers outlive any caller's stack frame, so a
//! batch's work closure owns its inputs (`'static`) and is shared through an `Arc`.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Lock a pool-internal mutex. No user code runs while one is held (item panics are
/// caught before the lock is taken), so even a poisoned lock guards consistent state.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One try at an item, as the work function of [`FanOutPool::run_or_defer`]
/// reports it.
#[derive(Debug)]
pub enum Attempt<T> {
    /// The item ran and produced this (`None`: nothing to report, e.g. an empty
    /// per-shard chunk).
    Ran(Option<T>),
    /// The item could not start without blocking, e.g. on a shard lock another
    /// batch holds. The thread comes back to it after the items nobody has
    /// claimed yet.
    Later,
}

/// Run `item` now if it can start without blocking; `None` puts it off. With
/// `may_block` the item always runs (a work function that still answers
/// [`Attempt::Later`] is asked again after a yield).
fn try_item<T>(
    work: &impl Fn(usize, bool) -> Attempt<T>,
    item: usize,
    may_block: bool,
) -> Option<std::thread::Result<Option<T>>> {
    loop {
        match panic::catch_unwind(AssertUnwindSafe(|| work(item, may_block))) {
            Ok(Attempt::Ran(result)) => return Some(Ok(result)),
            Err(payload) => return Some(Err(payload)),
            Ok(Attempt::Later) if !may_block => return None,
            Ok(Attempt::Later) => std::thread::yield_now(),
        }
    }
}

/// Claim items until none is left, putting off the ones that cannot start
/// without blocking and running those last; `finished` gets every item's outcome.
fn work_through<T>(
    claim: impl Fn() -> Option<usize>,
    work: &impl Fn(usize, bool) -> Attempt<T>,
    mut finished: impl FnMut(usize, std::thread::Result<Option<T>>),
) {
    let mut later = Vec::new();
    while let Some(item) = claim() {
        match try_item(work, item, false) {
            Some(outcome) => finished(item, outcome),
            None => later.push(item),
        }
    }
    for item in later {
        if let Some(outcome) = try_item(work, item, true) {
            finished(item, outcome);
        }
    }
}

/// A batch as the helpers see it: something to claim items from.
trait Job: Send + Sync {
    /// Claim and run unclaimed items until none is left.
    fn help(&self);
}

/// The helpers' shared work queue: one entry per helper a batch asked for.
struct Queue {
    jobs: VecDeque<Arc<dyn Job>>,
    closed: bool,
}

/// State shared by a pool handle and its helper threads.
struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
    sharing: Sharing,
}

/// Batches in a row that must start with fewer callers in flight than
/// [`Sharing`]'s estimate before the estimate drops by one.
pub(crate) const CALM_BATCHES: usize = 64;

/// How many callers have shared the pool lately. The estimate rises as soon as a
/// batch starts with more callers in flight and drops one step only after
/// [`CALM_BATCHES`] batches in a row start with fewer, so callers that take turns
/// — closed loops of RPCs, each spending part of its time outside the pool — count
/// as sharing it rather than each looking alone half of the time.
struct Sharing {
    /// Batch calls in progress right now; a nested call counts again.
    in_flight: AtomicUsize,
    recent: AtomicUsize,
    /// Batches in a row that started below `recent`.
    calm: AtomicUsize,
}

impl Sharing {
    fn new() -> Self {
        Self {
            in_flight: AtomicUsize::new(0),
            recent: AtomicUsize::new(1),
            calm: AtomicUsize::new(0),
        }
    }

    /// Count the calling thread in until the guard drops (panics included) and
    /// return how many callers share the pool lately, this one included.
    fn enter(&self) -> (InFlight<'_>, usize) {
        let in_flight = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        let recent = self
            .recent
            .fetch_max(in_flight, Ordering::Relaxed)
            .max(in_flight);
        if in_flight == recent {
            self.calm.store(0, Ordering::Relaxed);
        } else if self.calm.fetch_add(1, Ordering::Relaxed) + 1 >= CALM_BATCHES {
            self.calm.store(0, Ordering::Relaxed);
            // Racing callers may lower it too; it never goes below one.
            let _ = self
                .recent
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| {
                    (r > 1).then(|| r - 1)
                });
        }
        (InFlight(&self.in_flight), recent)
    }
}

/// A caller's place in [`Sharing::in_flight`], given up on drop.
struct InFlight<'a>(&'a AtomicUsize);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A fixed set of long-lived helper threads that run batches of independent items
/// together with the calling thread. See the module docs for the contract.
pub struct FanOutPool {
    shared: Arc<Shared>,
    helpers: usize,
}

impl fmt::Debug for FanOutPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FanOutPool")
            .field("helpers", &self.helpers)
            .finish()
    }
}

impl FanOutPool {
    /// Start a pool with `helpers` helper threads. With 0 helpers every batch runs on
    /// its calling thread. If the OS refuses a thread the pool keeps the helpers it
    /// got ([`FanOutPool::helpers`] reports how many) — batches stay correct with any
    /// number, since the caller runs whatever no helper claims.
    pub fn new(helpers: usize) -> Arc<Self> {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                closed: false,
            }),
            wake: Condvar::new(),
            sharing: Sharing::new(),
        });
        let started = (0..helpers)
            .take_while(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ccf-fanout-{i}"))
                    .spawn(move || helper_loop(&shared))
                    .is_ok()
            })
            .count();
        Arc::new(Self {
            shared,
            helpers: started,
        })
    }

    /// The process-wide pool: `available_parallelism() − 1` helpers (the calling
    /// thread is the remaining worker), started on first use and never stopped.
    pub fn global() -> Arc<Self> {
        static GLOBAL: OnceLock<Arc<FanOutPool>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| {
            let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
            Self::new(cpus - 1)
        }))
    }

    /// Number of helper threads (not counting callers).
    pub fn helpers(&self) -> usize {
        self.helpers
    }

    /// Run `work(item)` for every item in `0..num_items` on the calling thread plus
    /// up to `workers − 1` helpers, and return the produced results tagged by item
    /// index, in item order. Items for which `work` returns `None` (e.g. empty
    /// per-shard chunks) produce nothing. With `workers <= 1`, a single item or a
    /// helperless pool, everything runs on the calling thread in item order.
    ///
    /// Callers that share the pool share its threads: with `c` callers sharing it
    /// lately, a batch recruits at most `(helpers + 1) / c − 1` helpers,
    /// so as many concurrent callers as the pool has threads run their batches on
    /// their own threads alone, and wake no helper to compete with them for a core.
    ///
    /// A panicking `work` call does not stop the batch: the other items still run,
    /// every item already running finishes, and then the first panic is re-raised
    /// here, on the calling thread. Helpers survive it.
    pub fn run<T, F>(&self, num_items: usize, workers: usize, work: F) -> Vec<(usize, T)>
    where
        T: Send + 'static,
        F: Fn(usize) -> Option<T> + Send + Sync + 'static,
    {
        self.run_or_defer(num_items, workers, move |item, _| Attempt::Ran(work(item)))
    }

    /// [`FanOutPool::run`] for items that may have to wait on something another
    /// thread holds. `work(item, may_block)` answers [`Attempt::Later`] instead of
    /// blocking when `may_block` is false; the thread then claims other items and
    /// comes back to the ones it put off, with `may_block` true, once none is left
    /// unclaimed. So no thread blocks on one item while another waits to be
    /// claimed, and two batches walking the same items never queue behind each
    /// other item after item.
    pub fn run_or_defer<T, F>(&self, num_items: usize, workers: usize, work: F) -> Vec<(usize, T)>
    where
        T: Send + 'static,
        F: Fn(usize, bool) -> Attempt<T> + Send + Sync + 'static,
    {
        let (_in_flight, sharing) = self.shared.sharing.enter();
        let recruits = workers
            .clamp(1, num_items.max(1))
            .saturating_sub(1)
            .min(self.helpers)
            .min(((self.helpers + 1) / sharing).saturating_sub(1));
        if recruits == 0 {
            let next = Cell::new(0);
            let claim = || {
                let item = next.get();
                next.set(item + 1);
                (item < num_items).then_some(item)
            };
            let (mut results, mut first_panic) = (Vec::new(), None);
            work_through(claim, &work, |item, outcome| match outcome {
                Ok(result) => results.extend(result.map(|r| (item, r))),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            });
            if let Some(payload) = first_panic {
                panic::resume_unwind(payload);
            }
            results.sort_unstable_by_key(|&(item, _)| item);
            return results;
        }
        let batch = Arc::new(Batch {
            work,
            num_items,
            next: AtomicUsize::new(0),
            progress: Mutex::new(Progress {
                results: Vec::with_capacity(num_items),
                finished: 0,
                panic: None,
            }),
            all_finished: Condvar::new(),
        });
        let job: Arc<dyn Job> = batch.clone();
        lock(&self.shared.queue)
            .jobs
            .extend(std::iter::repeat_with(|| Arc::clone(&job)).take(recruits));
        for _ in 0..recruits {
            self.shared.wake.notify_one();
        }
        batch.help();
        // Every item is claimed now; withdraw the entries no helper picked up so
        // helpers do not wake for a finished batch.
        let ours = Arc::as_ptr(&job) as *const ();
        lock(&self.shared.queue)
            .jobs
            .retain(|queued| Arc::as_ptr(queued) as *const () != ours);
        batch.finish()
    }
}

impl Drop for FanOutPool {
    /// Tell the helpers to exit once they finish what they are running. They are not
    /// joined: the last handle may be dropped on a helper thread itself.
    fn drop(&mut self) {
        lock(&self.shared.queue).closed = true;
        self.shared.wake.notify_all();
    }
}

/// A helper's life: take a queued batch, help it to completion, repeat until the
/// pool is dropped. Item panics are caught inside [`Job::help`], so a helper never
/// unwinds.
fn helper_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if queue.closed {
                    return;
                }
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                queue = shared
                    .wake
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        job.help();
    }
}

/// What a batch has produced so far.
struct Progress<T> {
    results: Vec<(usize, T)>,
    finished: usize,
    panic: Option<Box<dyn Any + Send>>,
}

/// One [`FanOutPool::run`] call: the work, its claim cursor, and its results.
struct Batch<T, F> {
    work: F,
    num_items: usize,
    /// The next unclaimed item; every thread working on the batch claims from here.
    next: AtomicUsize,
    progress: Mutex<Progress<T>>,
    all_finished: Condvar,
}

impl<T, F> Job for Batch<T, F>
where
    T: Send,
    F: Fn(usize, bool) -> Attempt<T> + Send + Sync,
{
    fn help(&self) {
        let claim = || {
            let item = self.next.fetch_add(1, Ordering::Relaxed);
            (item < self.num_items).then_some(item)
        };
        work_through(claim, &self.work, |item, outcome| {
            let mut progress = lock(&self.progress);
            match outcome {
                Ok(Some(result)) => progress.results.push((item, result)),
                Ok(None) => {}
                Err(payload) => {
                    progress.panic.get_or_insert(payload);
                }
            }
            progress.finished += 1;
            if progress.finished == self.num_items {
                self.all_finished.notify_all();
            }
        });
    }
}

impl<T, F> Batch<T, F> {
    /// Wait until every item has finished, then re-raise the first item panic or
    /// return the results in item order.
    fn finish(&self) -> Vec<(usize, T)> {
        let mut progress = lock(&self.progress);
        while progress.finished < self.num_items {
            progress = self
                .all_finished
                .wait(progress)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if let Some(payload) = progress.panic.take() {
            drop(progress);
            panic::resume_unwind(payload);
        }
        let mut results = std::mem::take(&mut progress.results);
        results.sort_unstable_by_key(|&(item, _)| item);
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;
    use std::time::Duration;

    /// Pools with 0, 1 and 3 helpers: the 1-CPU, 2-CPU and 4-CPU shapes.
    fn pools() -> Vec<Arc<FanOutPool>> {
        [0, 1, 3].into_iter().map(FanOutPool::new).collect()
    }

    /// A batch of `helpers + 1` items, each holding its thread until every item has
    /// started (or 10 s pass), then calling `then`. Returns the distinct threads
    /// that ran an item: all helpers plus the caller, unless a helper is missing.
    fn rendezvous(pool: &FanOutPool, then: impl Fn() + Send + Sync + 'static) -> HashSet<ThreadId> {
        let width = pool.helpers() + 1;
        let arrived = Arc::new((Mutex::new(0usize), Condvar::new()));
        let results = pool.run(width, width, move |_| {
            let (count, all_in) = &*arrived;
            let mut n = lock(count);
            *n += 1;
            all_in.notify_all();
            while *n < width {
                let (guard, timeout) = all_in
                    .wait_timeout(n, Duration::from_secs(10))
                    .unwrap_or_else(PoisonError::into_inner);
                n = guard;
                if timeout.timed_out() {
                    break;
                }
            }
            drop(n);
            then();
            Some(std::thread::current().id())
        });
        results.into_iter().map(|(_, id)| id).collect()
    }

    #[test]
    fn covers_every_item_exactly_once() {
        for pool in pools() {
            for workers in [1, 2, 3, 8, 100] {
                let results = pool.run(17, workers, |i| Some(i * i));
                assert_eq!(
                    results,
                    (0..17).map(|i| (i, i * i)).collect::<Vec<_>>(),
                    "helpers = {}, workers = {workers}",
                    pool.helpers()
                );
            }
        }
    }

    #[test]
    fn none_items_are_skipped() {
        for pool in pools() {
            let results = pool.run(10, 4, |i| (i % 2 == 0).then_some(i));
            assert_eq!(results.len(), 5);
            assert!(results.iter().all(|(i, v)| i == v && i % 2 == 0));
        }
    }

    #[test]
    fn zero_items_is_a_no_op() {
        for pool in pools() {
            assert!(pool.run(0, 4, |_| Some(())).is_empty());
        }
    }

    #[test]
    fn sequential_path_preserves_item_order() {
        let pool = FanOutPool::new(3);
        let caller = std::thread::current().id();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        let results = pool.run(6, 1, move |i| {
            lock(&log).push((i, std::thread::current().id()));
            Some(i)
        });
        assert_eq!(results, (0..6).map(|i| (i, i)).collect::<Vec<_>>());
        assert_eq!(
            *lock(&seen),
            (0..6).map(|i| (i, caller)).collect::<Vec<_>>(),
            "one worker means the calling thread runs every item, in order"
        );
    }

    #[test]
    fn every_helper_joins_a_wide_batch() {
        for pool in pools() {
            let threads = rendezvous(&pool, || {});
            assert_eq!(threads.len(), pool.helpers() + 1);
            assert!(threads.contains(&std::thread::current().id()));
        }
    }

    #[test]
    fn worker_cap_bounds_the_threads_on_a_batch() {
        let pool = FanOutPool::new(3);
        for workers in [1, 2, 3] {
            let results = pool.run(64, workers, |_| {
                std::thread::sleep(Duration::from_micros(200));
                Some(std::thread::current().id())
            });
            let threads: HashSet<_> = results.into_iter().map(|(_, id)| id).collect();
            assert!(
                threads.len() <= workers,
                "{} threads ran a batch capped at {workers}",
                threads.len()
            );
        }
    }

    #[test]
    fn put_off_items_run_after_the_unclaimed_ones() {
        for pool in pools() {
            // One worker: item 0 cannot start without blocking, so it runs last.
            let order = Arc::new(Mutex::new(Vec::new()));
            let log = Arc::clone(&order);
            let results = pool.run_or_defer(6, 1, move |i, may_block| {
                if i == 0 && !may_block {
                    return Attempt::Later;
                }
                lock(&log).push(i);
                Attempt::Ran(Some(i * 10))
            });
            assert_eq!(results, (0..6).map(|i| (i, i * 10)).collect::<Vec<_>>());
            assert_eq!(*lock(&order), [1, 2, 3, 4, 5, 0]);
            // A wide batch: whichever thread claims an even item puts it off, and
            // every item still runs exactly once.
            let runs = Arc::new(AtomicUsize::new(0));
            let counter = Arc::clone(&runs);
            let results = pool.run_or_defer(40, 4, move |i, may_block| {
                if i % 2 == 0 && !may_block {
                    return Attempt::Later;
                }
                counter.fetch_add(1, Ordering::Relaxed);
                Attempt::Ran(Some(i))
            });
            assert_eq!(results, (0..40).map(|i| (i, i)).collect::<Vec<_>>());
            assert_eq!(
                runs.load(Ordering::Relaxed),
                40,
                "helpers = {}",
                pool.helpers()
            );
        }
    }

    #[test]
    fn callers_sharing_the_pool_share_its_helpers() {
        let pool = FanOutPool::new(3);
        // A batch nested inside an item puts two callers in flight at once.
        let inner = Arc::clone(&pool);
        pool.run(1, 1, move |_| Some(inner.run(1, 1, |_| Some(()))));
        // Two callers lately on a four-thread pool: a batch gets one helper at most.
        let results = pool.run(64, 4, |_| {
            std::thread::sleep(Duration::from_micros(200));
            Some(std::thread::current().id())
        });
        let threads: HashSet<_> = results.into_iter().map(|(_, id)| id).collect();
        assert!(
            threads.len() <= 2,
            "{} threads ran a batch while two callers shared the pool",
            threads.len()
        );
        // A caller alone for CALM_BATCHES batches gets every helper again.
        for _ in 0..CALM_BATCHES {
            pool.run(1, 1, |_| Some(()));
        }
        let threads = rendezvous(&pool, || {});
        assert_eq!(threads.len(), pool.helpers() + 1);
    }

    #[test]
    fn a_panicking_item_is_reraised_and_every_helper_survives() {
        for pool in pools() {
            // Every thread on the batch — each helper and the caller — panics.
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                rendezvous(&pool, || panic!("planted item panic"))
            }));
            let payload = outcome.expect_err("the item panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"planted item panic"),
                "the caller re-raises the item's own payload"
            );
            // The next batch still reaches every helper.
            let threads = rendezvous(&pool, || {});
            assert_eq!(
                threads.len(),
                pool.helpers() + 1,
                "a helper was lost to the panic (helpers = {})",
                pool.helpers()
            );
        }
    }

    #[test]
    fn items_may_run_nested_batches_on_the_same_pool() {
        for pool in pools() {
            let inner = Arc::clone(&pool);
            let results = pool.run(4, 4, move |i| {
                let sums = inner.run(8, 4, move |j| Some(i * 100 + j));
                Some(sums.into_iter().map(|(_, v)| v).sum::<usize>())
            });
            let expected: Vec<_> = (0..4).map(|i| (i, 800 * i + 28)).collect();
            assert_eq!(results, expected, "helpers = {}", pool.helpers());
        }
    }
}
