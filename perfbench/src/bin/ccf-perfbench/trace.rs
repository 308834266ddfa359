//! In-memory spans recorded by the harness around each call it makes into a layer.
//!
//! A span has a `<module>.<function>` name, start and end times, its parent span,
//! and a count of the keys or rows the call handled. Spans are recorded per
//! thread while tracing is on for that thread, collected with [`take`], and
//! written out once at exit. Nothing inside the library is instrumented: every
//! span wraps a public call made from the benchmark's own code.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Spans beyond this many per thread are dropped (counted, not recorded).
const MAX_SPANS: usize = 4_000_000;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub thread: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Keys or rows handled by the call.
    pub count: u64,
}

#[derive(Default)]
struct Tracer {
    enabled: bool,
    thread: u32,
    next_id: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
    dropped: u64,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turn span recording on or off for the calling thread. `thread` tags its spans.
pub fn set_enabled(enabled: bool, thread: u32) {
    epoch();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.enabled = enabled;
        t.thread = thread;
        if t.next_id == 0 {
            // Ids are unique across threads: the thread tag is the high half.
            t.next_id = (u64::from(thread) << 32) + 1;
        }
    });
}

pub fn is_enabled() -> bool {
    TRACER.with(|t| t.borrow().enabled)
}

/// Run `f` inside a span named `name` covering `count` keys or rows. With tracing
/// off this is a plain call.
#[inline]
pub fn span<T>(name: &'static str, count: u64, f: impl FnOnce() -> T) -> T {
    let open = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return None;
        }
        let id = t.next_id;
        t.next_id += 1;
        let parent = t.stack.last().copied().unwrap_or(0);
        t.stack.push(id);
        Some((id, parent, now_ns()))
    });
    let Some((id, parent, start_ns)) = open else {
        return f();
    };
    let out = f();
    let end_ns = now_ns();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.stack.pop();
        if t.spans.len() < MAX_SPANS {
            let thread = t.thread;
            t.spans.push(Span {
                id,
                parent,
                thread,
                name,
                start_ns,
                end_ns,
                count,
            });
        } else {
            t.dropped += 1;
        }
    });
    out
}

/// Move the calling thread's recorded spans out (and the number dropped).
pub fn take() -> (Vec<Span>, u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        (std::mem::take(&mut t.spans), std::mem::take(&mut t.dropped))
    })
}

/// Totals for one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub calls: u64,
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
}

impl Totals {
    /// Nanoseconds per key or row (0 when the span never ran).
    pub fn ns_per_item(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Aggregate spans by name, computing self time from the parent links.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.count += s.count;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Self time of every span whose name starts with `layer.`, summed.
pub fn layer_self_ns(totals: &BTreeMap<&'static str, Totals>, layer: &str) -> u64 {
    totals
        .iter()
        .filter(|(name, _)| name.split_once('.').is_some_and(|(l, _)| l == layer))
        .map(|(_, t)| t.self_ns)
        .sum()
}

/// Write spans as tab-separated lines under `dir` (best effort: a failure is
/// reported, not fatal).
pub fn write_out(dir: &std::path::Path, file: &str, spans: &[Span]) -> Option<std::path::PathBuf> {
    use std::io::Write;
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(file);
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path).ok()?);
    writeln!(out, "id\tparent\tthread\tname\tstart_ns\tend_ns\tcount").ok()?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.thread, s.name, s.start_ns, s.end_ns, s.count
        )
        .ok()?;
    }
    out.flush().ok()?;
    Some(path)
}
