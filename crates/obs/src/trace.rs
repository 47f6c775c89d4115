//! Lock-free span tracing: per-thread ring buffers, global snapshots,
//! Chrome `trace_event` export and per-span-name aggregation.
//!
//! # Design
//!
//! Each thread that opens a span owns one ring of
//! [`ring_capacity`] fixed slots ([`RING_CAPACITY`] by default; the
//! `ST_OBS_RING` variable resizes it for long traced runs). Recording a
//! finished span is a handful
//! of relaxed atomic stores guarded by a per-slot sequence counter
//! (a seqlock): the writer never blocks and never allocates. A global
//! registry keeps one `Arc` per ring so any thread can [`snapshot`] all
//! of them; readers detect torn slots via the sequence counter and skip
//! them instead of waiting. Once a ring wraps, the oldest spans are
//! overwritten — the snapshot reports how many were
//! [dropped](TraceSnapshot::dropped).
//!
//! Self time is computed exactly at record time: every thread keeps a
//! (plain, thread-local) stack of open spans; when a span closes, its
//! duration is charged to the parent's child-time accumulator, so
//! `self = total − Σ direct children` without any post-hoc tree
//! reconstruction.
//!
//! Timestamps come from one process-wide monotonic epoch
//! ([`now_ns`]), so spans from different threads share a timeline.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default spans kept per thread before the ring wraps; override with the
/// `ST_OBS_RING` environment variable (see [`ring_capacity`]).
pub const RING_CAPACITY: usize = 4096;

/// Per-thread ring capacity in slots: `ST_OBS_RING` when set to a valid
/// integer (clamped to at least 64), [`RING_CAPACITY`] otherwise. Read
/// once on first use — changing the variable later has no effect. Long
/// traced runs (a full training epoch) emit more spans than the default
/// holds; raising the ring keeps early spans (model-construction fan-outs
/// and the like) from being overwritten by wrap-around.
pub fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("ST_OBS_RING")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(|n| n.max(64))
            .unwrap_or(RING_CAPACITY)
    })
}

/// Maximum key/value arguments recorded per span.
pub const MAX_ARGS: usize = 4;

/// Nanoseconds since the process-wide trace epoch (first use).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded span slot. All fields are atomics so concurrent snapshot
/// reads are race-free; the `seq` counter (odd while a write is in
/// flight) lets readers detect and skip torn slots.
struct Slot {
    seq: AtomicU64,
    name_ptr: AtomicUsize,
    name_len: AtomicUsize,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
    self_ns: AtomicU64,
    argc: AtomicUsize,
    arg_name_ptr: [AtomicUsize; MAX_ARGS],
    arg_name_len: [AtomicUsize; MAX_ARGS],
    arg_val: [AtomicU64; MAX_ARGS],
}

impl Slot {
    fn new() -> Self {
        const ZU: AtomicUsize = AtomicUsize::new(0);
        const Z64: AtomicU64 = AtomicU64::new(0);
        Slot {
            seq: AtomicU64::new(0),
            name_ptr: ZU,
            name_len: ZU,
            start_ns: Z64,
            dur_ns: Z64,
            self_ns: Z64,
            argc: ZU,
            arg_name_ptr: [ZU; MAX_ARGS],
            arg_name_len: [ZU; MAX_ARGS],
            arg_val: [Z64; MAX_ARGS],
        }
    }
}

/// One thread's span ring, shared (via `Arc`) with the global registry.
struct ThreadRing {
    /// Small dense id assigned at registration (used as the Chrome `tid`).
    tid: u64,
    /// OS thread name at registration, for the Chrome thread-name row.
    thread_name: String,
    /// Total spans ever recorded; the write cursor is `head % CAPACITY`.
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl ThreadRing {
    /// Records one finished span. Only the owning thread calls this, so
    /// `head` has a single writer; the seqlock protects readers.
    fn record(&self, name: &'static str, start_ns: u64, dur_ns: u64, self_ns: u64, args: &ArgBuf) {
        let idx = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(idx % self.slots.len() as u64) as usize];
        let seq = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq.wrapping_add(1), Ordering::Relaxed); // odd: write in flight
        fence(Ordering::Release);
        slot.name_ptr
            .store(name.as_ptr() as usize, Ordering::Relaxed);
        slot.name_len.store(name.len(), Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        slot.self_ns.store(self_ns, Ordering::Relaxed);
        slot.argc.store(args.len, Ordering::Relaxed);
        for i in 0..args.len {
            let (k, v) = args.entries[i];
            slot.arg_name_ptr[i].store(k.as_ptr() as usize, Ordering::Relaxed);
            slot.arg_name_len[i].store(k.len(), Ordering::Relaxed);
            slot.arg_val[i].store(v, Ordering::Relaxed);
        }
        slot.seq.store(seq.wrapping_add(2), Ordering::Release); // even: stable
        self.head.store(idx + 1, Ordering::Release);
    }
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// An open span on the thread-local stack.
struct Frame {
    name: &'static str,
    args: ArgBuf,
    start_ns: u64,
    /// Total duration of direct children, accumulated as they close.
    child_ns: u64,
}

/// Fixed-capacity copy of a span's arguments.
#[derive(Clone, Copy)]
struct ArgBuf {
    entries: [(&'static str, u64); MAX_ARGS],
    len: usize,
}

impl ArgBuf {
    fn from_slice(args: &[(&'static str, u64)]) -> Self {
        let mut buf = ArgBuf {
            entries: [("", 0); MAX_ARGS],
            len: args.len().min(MAX_ARGS),
        };
        buf.entries[..buf.len].copy_from_slice(&args[..buf.len]);
        buf
    }
}

struct Local {
    ring: Arc<ThreadRing>,
    stack: Vec<Frame>,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> Option<R> {
    LOCAL
        .try_with(|cell| {
            let mut slot = cell.borrow_mut();
            let local = slot.get_or_insert_with(|| {
                let mut reg = registry().lock().expect("trace registry poisoned");
                let ring = Arc::new(ThreadRing {
                    tid: reg.len() as u64,
                    thread_name: std::thread::current().name().unwrap_or("?").to_string(),
                    head: AtomicU64::new(0),
                    slots: (0..ring_capacity()).map(|_| Slot::new()).collect(),
                });
                reg.push(Arc::clone(&ring));
                Local {
                    ring,
                    stack: Vec::with_capacity(32),
                }
            });
            f(local)
        })
        .ok()
}

/// RAII guard created by [`span!`](crate::span); records the span into the
/// current thread's ring when dropped.
///
/// Guards must nest (drop in reverse creation order) on the thread that
/// created them — the natural shape of `let _g = span!(...)` scoping.
pub struct SpanGuard {
    armed: bool,
    // Not Send: the guard must drop on the thread whose stack it pushed.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl SpanGuard {
    /// Opens a span named `name` if tracing is enabled (see
    /// [`enabled`](crate::enabled)); otherwise returns a disarmed guard
    /// whose drop is a no-op.
    #[inline]
    pub fn begin(name: &'static str, args: &[(&'static str, u64)]) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard {
                armed: false,
                _not_send: std::marker::PhantomData,
            };
        }
        Self::begin_slow(name, args)
    }

    #[cold]
    fn begin_slow(name: &'static str, args: &[(&'static str, u64)]) -> SpanGuard {
        let armed = with_local(|local| {
            local.stack.push(Frame {
                name,
                args: ArgBuf::from_slice(args),
                start_ns: now_ns(),
                child_ns: 0,
            });
        })
        .is_some();
        SpanGuard {
            armed,
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let _ = with_local(|local| {
            let Some(frame) = local.stack.pop() else {
                return;
            };
            let dur_ns = now_ns().saturating_sub(frame.start_ns);
            let self_ns = dur_ns.saturating_sub(frame.child_ns);
            local
                .ring
                .record(frame.name, frame.start_ns, dur_ns, self_ns, &frame.args);
            if let Some(parent) = local.stack.last_mut() {
                parent.child_ns += dur_ns;
            }
        });
    }
}

/// Opens a tracing span for the enclosing scope.
///
/// The first argument is a `&'static str` span name (convention:
/// `layer.operation`, e.g. `"tensor.matmul"`). Up to four further
/// integer expressions are recorded as named arguments (the expression
/// text is the key). Returns a [`SpanGuard`]; bind it to a variable so
/// it drops at scope end:
///
/// ```
/// let (m, n) = (3usize, 4usize);
/// let _span = st_obs::span!("example.op", m, n);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::SpanGuard::begin($name, &[])
    };
    ($name:expr, $($arg:expr),+ $(,)?) => {
        $crate::trace::SpanGuard::begin(
            $name,
            &[$((stringify!($arg), ($arg) as u64)),+],
        )
    };
}

/// One span read out of a ring by [`snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (the `span!` literal).
    pub name: &'static str,
    /// Dense trace-local thread id.
    pub tid: u64,
    /// Start time, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Total duration in nanoseconds.
    pub dur_ns: u64,
    /// Duration minus direct children, in nanoseconds.
    pub self_ns: u64,
    /// Named integer arguments captured at the call site.
    pub args: Vec<(&'static str, u64)>,
}

/// A point-in-time copy of every thread's ring.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// All readable spans, sorted by start time.
    pub spans: Vec<SpanRecord>,
    /// Per-thread `(tid, thread name)` pairs.
    pub threads: Vec<(u64, String)>,
    /// Spans lost to ring wrap-around or skipped as torn.
    pub dropped: u64,
}

/// Copies every registered thread's ring without stopping writers.
///
/// Torn slots (a writer racing the read) are skipped and counted in
/// [`TraceSnapshot::dropped`] along with spans already overwritten by
/// ring wrap-around.
pub fn snapshot() -> TraceSnapshot {
    let rings: Vec<Arc<ThreadRing>> = registry().lock().expect("trace registry poisoned").clone();
    let mut out = TraceSnapshot::default();
    for ring in &rings {
        out.threads.push((ring.tid, ring.thread_name.clone()));
        let cap = ring.slots.len() as u64;
        let head = ring.head.load(Ordering::Acquire);
        let count = head.min(cap);
        out.dropped += head - count;
        for logical in (head - count)..head {
            let slot = &ring.slots[(logical % cap) as usize];
            let seq1 = slot.seq.load(Ordering::Acquire);
            if seq1 & 1 == 1 {
                out.dropped += 1;
                continue;
            }
            let name_ptr = slot.name_ptr.load(Ordering::Relaxed);
            let name_len = slot.name_len.load(Ordering::Relaxed);
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
            let self_ns = slot.self_ns.load(Ordering::Relaxed);
            let argc = slot.argc.load(Ordering::Relaxed).min(MAX_ARGS);
            let mut raw_args = [(0usize, 0usize, 0u64); MAX_ARGS];
            for (i, raw) in raw_args.iter_mut().enumerate().take(argc) {
                *raw = (
                    slot.arg_name_ptr[i].load(Ordering::Relaxed),
                    slot.arg_name_len[i].load(Ordering::Relaxed),
                    slot.arg_val[i].load(Ordering::Relaxed),
                );
            }
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != seq1 || name_ptr == 0 {
                out.dropped += 1;
                continue;
            }
            // SAFETY: name_ptr/name_len were written from a `&'static str`
            // (the span! literal) and the seqlock check above proved the
            // pair was read consistently, so the bytes are live for the
            // whole program and valid UTF-8. The same holds for arg names.
            let name = unsafe { static_str(name_ptr, name_len) };
            let args = raw_args[..argc]
                .iter()
                .map(|&(p, l, v)| (unsafe { static_str(p, l) }, v))
                .collect();
            out.spans.push(SpanRecord {
                name,
                tid: ring.tid,
                start_ns,
                dur_ns,
                self_ns,
                args,
            });
        }
    }
    out.spans.sort_by_key(|s| (s.start_ns, s.tid));
    out
}

/// # Safety
///
/// `ptr`/`len` must come from a `&'static str` read consistently (see the
/// seqlock reasoning at the call site).
unsafe fn static_str(ptr: usize, len: usize) -> &'static str {
    std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptr as *const u8, len))
}

/// Discards all recorded spans (best effort: rings of live threads are
/// rewound, not freed). Mainly for tests and between benchmark phases.
pub fn reset() {
    for ring in registry().lock().expect("trace registry poisoned").iter() {
        ring.head.store(0, Ordering::Release);
    }
}

/// Aggregated statistics for one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanAgg {
    /// Span name.
    pub name: &'static str,
    /// Number of recorded spans.
    pub count: u64,
    /// Sum of total durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of self times (total minus direct children), nanoseconds.
    pub self_ns: u64,
    /// Median duration (nearest-rank ⌈p·n⌉ convention), nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile duration (nearest-rank), nanoseconds.
    pub p99_ns: u64,
}

/// Nearest-rank percentile (rank `⌈p·n⌉`, matching the workspace's
/// timing convention) over a sorted slice.
fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Groups a snapshot's spans by name, most total time first.
pub fn aggregate(snap: &TraceSnapshot) -> Vec<SpanAgg> {
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut self_by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in &snap.spans {
        by_name.entry(s.name).or_default().push(s.dur_ns);
        *self_by_name.entry(s.name).or_default() += s.self_ns;
    }
    let mut out: Vec<SpanAgg> = by_name
        .into_iter()
        .map(|(name, mut durs)| {
            durs.sort_unstable();
            SpanAgg {
                name,
                count: durs.len() as u64,
                total_ns: durs.iter().sum(),
                self_ns: self_by_name[name],
                p50_ns: percentile_sorted(&durs, 0.50),
                p99_ns: percentile_sorted(&durs, 0.99),
            }
        })
        .collect();
    out.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
    out
}

/// Renders an aggregate as an aligned text table (times in milliseconds).
pub fn render_table(aggs: &[SpanAgg]) -> String {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out = format!(
        "{:<28} {:>8} {:>12} {:>12} {:>10} {:>10}\n",
        "span", "count", "total_ms", "self_ms", "p50_ms", "p99_ms"
    );
    for a in aggs {
        out.push_str(&format!(
            "{:<28} {:>8} {:>12.3} {:>12.3} {:>10.3} {:>10.3}\n",
            a.name,
            a.count,
            ms(a.total_ns),
            ms(a.self_ns),
            ms(a.p50_ns),
            ms(a.p99_ns)
        ));
    }
    out
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Renders a snapshot as Chrome `trace_event` JSON (load it at
/// `chrome://tracing` or <https://ui.perfetto.dev>). Events appear in
/// start-time order; `ts`/`dur` are microseconds with nanosecond
/// fractions.
pub fn chrome_trace_json(snap: &TraceSnapshot) -> String {
    let mut out = String::with_capacity(128 + snap.spans.len() * 128);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (tid, name) in &snap.threads {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\""
        ));
        escape_json(name, &mut out);
        out.push_str("\"}}");
    }
    for s in &snap.spans {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n{\"name\":\"");
        escape_json(s.name, &mut out);
        out.push_str(&format!(
            "\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"self_ns\":{}",
            s.tid,
            s.start_ns / 1_000,
            s.start_ns % 1_000,
            s.dur_ns / 1_000,
            s.dur_ns % 1_000,
            s.self_ns,
        ));
        for (k, v) in &s.args {
            out.push_str(",\"");
            escape_json(k, &mut out);
            out.push_str(&format!("\":{v}"));
        }
        out.push_str("}}");
    }
    out.push_str(&format!(
        "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_spans\":{}}}}}\n",
        snap.dropped
    ));
    out
}

/// Snapshots all rings and writes the Chrome trace to `path`, returning
/// the number of span events written.
///
/// # Errors
///
/// Propagates any I/O error from writing the file.
pub fn write_chrome_trace(path: &str) -> std::io::Result<usize> {
    let snap = snapshot();
    std::fs::write(path, chrome_trace_json(&snap))?;
    Ok(snap.spans.len())
}

/// Summary statistics returned by [`validate_chrome_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// All events, including metadata rows.
    pub events: usize,
    /// Complete (`ph == "X"`) span events.
    pub span_events: usize,
    /// Distinct span names, sorted.
    pub names: Vec<String>,
}

impl TraceStats {
    /// Whether any span name starts with `prefix` (layer checks).
    pub fn has_prefix(&self, prefix: &str) -> bool {
        self.names.iter().any(|n| n.starts_with(prefix))
    }
}

/// Structurally validates Chrome-trace JSON: well-formed JSON, a
/// `traceEvents` array, every span event carrying a non-empty name and
/// non-negative `ts`/`dur`, with `ts` non-decreasing in file order.
///
/// # Errors
///
/// Returns a description of the first structural violation.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    use crate::json::Json;
    let root = crate::json::parse(text)?;
    let Json::Obj(fields) = &root else {
        return Err("top level is not an object".into());
    };
    let events = fields
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .ok_or("missing traceEvents")?;
    let Json::Arr(events) = events else {
        return Err("traceEvents is not an array".into());
    };
    let mut stats = TraceStats {
        events: events.len(),
        span_events: 0,
        names: Vec::new(),
    };
    let mut last_ts = f64::NEG_INFINITY;
    for (i, ev) in events.iter().enumerate() {
        let Json::Obj(ev) = ev else {
            return Err(format!("event {i} is not an object"));
        };
        let get = |key: &str| ev.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let Some(Json::Str(ph)) = get("ph") else {
            return Err(format!("event {i} has no ph"));
        };
        if ph != "X" {
            continue;
        }
        let Some(Json::Str(name)) = get("name") else {
            return Err(format!("event {i} has no name"));
        };
        if name.is_empty() {
            return Err(format!("event {i} has an empty name"));
        }
        let Some(Json::Num(ts)) = get("ts") else {
            return Err(format!("event {i} ({name}) has no numeric ts"));
        };
        let Some(Json::Num(dur)) = get("dur") else {
            return Err(format!("event {i} ({name}) has no numeric dur"));
        };
        if !ts.is_finite() || *ts < 0.0 || !dur.is_finite() || *dur < 0.0 {
            return Err(format!("event {i} ({name}) has negative ts/dur"));
        }
        if *ts < last_ts {
            return Err(format!(
                "event {i} ({name}) breaks ts monotonicity ({ts} after {last_ts})"
            ));
        }
        last_ts = *ts;
        stats.span_events += 1;
        if !stats.names.iter().any(|n| n == name) {
            stats.names.push(name.clone());
        }
    }
    stats.names.sort();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialise tests that toggle the global enabled flag / rings.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = LOCK.lock().unwrap();
        crate::set_enabled(false);
        reset();
        {
            let _s = crate::span!("test.disabled");
        }
        assert!(snapshot().spans.iter().all(|s| s.name != "test.disabled"));
    }

    #[test]
    fn nested_spans_compute_self_time_and_args() {
        let _g = LOCK.lock().unwrap();
        crate::set_enabled(true);
        reset();
        {
            let _outer = crate::span!("test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let k = 7usize;
                let _inner = crate::span!("test.inner", k);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        crate::set_enabled(false);
        let snap = snapshot();
        let outer = snap.spans.iter().find(|s| s.name == "test.outer").unwrap();
        let inner = snap.spans.iter().find(|s| s.name == "test.inner").unwrap();
        assert_eq!(inner.args, vec![("k", 7u64)]);
        assert!(outer.dur_ns >= inner.dur_ns);
        assert!(
            outer.self_ns <= outer.dur_ns - inner.dur_ns,
            "outer self {} vs dur {} inner {}",
            outer.self_ns,
            outer.dur_ns,
            inner.dur_ns
        );
        assert!(inner.start_ns >= outer.start_ns);
    }

    #[test]
    fn spans_from_many_threads_share_one_timeline() {
        let _g = LOCK.lock().unwrap();
        crate::set_enabled(true);
        reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _s = crate::span!("test.worker");
                });
            }
        });
        crate::set_enabled(false);
        let snap = snapshot();
        let workers: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "test.worker")
            .collect();
        assert_eq!(workers.len(), 4);
        let tids: std::collections::BTreeSet<u64> = workers.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 4, "each thread gets its own ring");
        // Sorted by start time.
        for w in snap.spans.windows(2) {
            assert!(w[0].start_ns <= w[1].start_ns);
        }
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let _g = LOCK.lock().unwrap();
        crate::set_enabled(true);
        reset();
        for _ in 0..ring_capacity() + 10 {
            let _s = crate::span!("test.wrap");
        }
        crate::set_enabled(false);
        let snap = snapshot();
        assert!(snap.dropped >= 10);
        assert!(snap.spans.iter().filter(|s| s.name == "test.wrap").count() <= ring_capacity());
    }

    #[test]
    fn chrome_json_round_trips_the_validator() {
        let _g = LOCK.lock().unwrap();
        crate::set_enabled(true);
        reset();
        {
            let n = 3usize;
            let _a = crate::span!("test.json", n);
        }
        {
            let _b = crate::span!("test.json2");
        }
        crate::set_enabled(false);
        let json = chrome_trace_json(&snapshot());
        let stats = validate_chrome_trace(&json).expect("valid trace");
        assert!(stats.span_events >= 2);
        assert!(stats.has_prefix("test."));
        assert!(stats.names.iter().any(|n| n == "test.json"));
    }

    #[test]
    fn aggregate_groups_and_ranks() {
        let snap = TraceSnapshot {
            spans: vec![
                SpanRecord {
                    name: "a",
                    tid: 0,
                    start_ns: 0,
                    dur_ns: 100,
                    self_ns: 60,
                    args: vec![],
                },
                SpanRecord {
                    name: "a",
                    tid: 0,
                    start_ns: 1,
                    dur_ns: 300,
                    self_ns: 300,
                    args: vec![],
                },
                SpanRecord {
                    name: "b",
                    tid: 0,
                    start_ns: 2,
                    dur_ns: 50,
                    self_ns: 50,
                    args: vec![],
                },
            ],
            threads: vec![(0, "t".into())],
            dropped: 0,
        };
        let aggs = aggregate(&snap);
        assert_eq!(aggs[0].name, "a");
        assert_eq!(aggs[0].count, 2);
        assert_eq!(aggs[0].total_ns, 400);
        assert_eq!(aggs[0].self_ns, 360);
        assert_eq!(aggs[0].p50_ns, 100); // nearest rank ⌈0.5·2⌉ = 1st
        assert_eq!(aggs[0].p99_ns, 300);
        assert_eq!(aggs[1].name, "b");
        let table = render_table(&aggs);
        assert!(table.contains("p99_ms"));
        assert!(table.lines().count() >= 3);
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":0}").is_err());
        let bad_ts = "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":5,\"dur\":1},{\"name\":\"y\",\"ph\":\"X\",\"ts\":1,\"dur\":1}]}";
        let err = validate_chrome_trace(bad_ts).unwrap_err();
        assert!(err.contains("monotonicity"), "{err}");
    }
}
