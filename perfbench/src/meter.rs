//! Measurement plumbing shared by every workload: a counting global
//! allocator, `/proc/self` readers, order statistics and the span tracer.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper counting allocation events and requested bytes
/// on every thread of the process. The counters publish no other data, so
/// `Relaxed` suffices.
pub struct CountingAlloc;

// SAFETY: every method forwards to the system allocator with the caller's
// own arguments; the only addition is a relaxed counter update, which
// neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        SystemAlloc.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        SystemAlloc.realloc(ptr, layout, new_size)
    }
}

/// `(allocation events, requested bytes)` since process start.
pub fn allocs() -> (u64, u64) {
    (
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time from `/proc/self/stat`, in milliseconds:
/// `(own user + system, reaped children's user + system)`.
pub fn cpu_ms() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0.0))
        .collect();
    // `rest` starts at field 3 (state): utime is field 14, cutime 16.
    let field = |n: usize| f.get(n - 3).copied().unwrap_or(0.0);
    let tick_ms = 1000.0 / 100.0; // USER_HZ is 100 on Linux.
    (
        (field(14) + field(15)) * tick_ms,
        (field(16) + field(17)) * tick_ms,
    )
}

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// order statistics; `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// The tail of `samples`, taken in the order they were measured.
///
/// From 1,000 samples up it is p97, computed on each of ten consecutive
/// blocks, and the median of the ten: a burst of load from other tenants
/// of a shared host slows a run of consecutive operations, which moves one
/// block's p97 and not the median. (p99 did not repeat between runs on a
/// shared 2-core host: fsync stalls and CPU steal set it.) Below 1,000
/// samples it is the highest percentile with at least ten samples beyond
/// it, and the median below twenty.
pub fn tail(samples: &[f64]) -> f64 {
    const BLOCKS: usize = 10;
    let n = samples.len();
    if n >= 1000 {
        let per_block: Vec<f64> = samples
            .chunks(n / BLOCKS)
            .take(BLOCKS)
            .filter_map(|b| quantile(b, 0.97))
            .collect();
        return median(&per_block);
    }
    let q = if n < 20 { 0.5 } else { 1.0 - 10.0 / n as f64 };
    quantile(samples, q).unwrap_or(0.0)
}

/// One recorded span: a timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// The operation this span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the tracer, if any.
    pub parent: Option<usize>,
    /// Layer boundary name, e.g. `core.step_events`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder. Disabled, it records nothing and reads no
/// clock; enabled, it keeps every span until the run ends.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// A span that has started and not yet ended.
#[must_use]
pub struct Open {
    index: Option<usize>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Starts a span named `name` in operation `op` under `parent`.
    pub fn begin(&mut self, op: u64, parent: &Open, name: &'static str) -> Open {
        if !self.on {
            return Open { index: None };
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            op,
            parent: parent.index,
            name,
            start_ns: now,
            end_ns: now,
        });
        Open {
            index: Some(self.spans.len() - 1),
        }
    }

    /// Ends `open`.
    pub fn end(&mut self, open: Open) {
        if let Some(i) = open.index {
            self.spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        op: u64,
        parent: &Open,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(op, parent, name);
        let out = f();
        self.end(open);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per-operation totals, in milliseconds, of spans named `name`.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut totals: std::collections::BTreeMap<u64, f64> = Default::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *totals.entry(s.op).or_default() += s.ms();
        }
        totals.into_values().collect()
    }

    /// The spans as JSON lines: `{"op","id","parent","name","start_ns","end_ns"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"op\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Operation id of spans that serve many operations at once.
pub const SHARED_OP: u64 = u64::MAX;

/// The root of a span tree: spans begun under it have no parent.
pub const ROOT: Open = Open { index: None };

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it_and_ignores_one_slow_block() {
        let small: Vec<f64> = (1..=40).map(f64::from).collect();
        assert!((tail(&small) - 30.25).abs() < 1e-9, "p75 of 40");
        assert_eq!(tail(&small[..10]), 5.5, "median below 20");
        let mut big: Vec<f64> = (0..2000).map(|i| f64::from(i % 100)).collect();
        let steady = tail(&big);
        assert!((steady - 96.03).abs() < 1e-9, "per-block p97");
        for x in &mut big[..200] {
            *x *= 10.0;
        }
        assert_eq!(tail(&big), steady, "one slow block moves nothing");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.span(1, &ROOT, "a", || 7);
        assert_eq!(x, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_group_by_operation() {
        let mut t = Tracer::new(true);
        let op = t.begin(1, &ROOT, "op");
        t.span(1, &op, "child", || ());
        t.span(1, &op, "child", || ());
        t.end(op);
        t.span(2, &ROOT, "child", || ());
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.durations_ms("child").len(), 3);
        assert_eq!(t.per_op_ms("child").len(), 2);
        assert_eq!(t.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let v = vec![0u8; 1 << 20];
        std::hint::black_box(&v);
        assert!(allocs().0 > 0);
        let (own, children) = cpu_ms();
        assert!(own >= 0.0 && children >= 0.0);
    }
}
