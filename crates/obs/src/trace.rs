//! Bounded structured event tracing with a chrome://tracing exporter.
//!
//! Tracing answers the question metrics cannot: *what happened, in
//! what order, on which shard?* Each shard owns a fixed-capacity ring
//! of [`TraceEvent`]s; a global atomic sequence number gives the
//! union of all rings a total order, so an exported timeline shows
//! e.g. a merge publishing between two batch flushes even though the
//! events were recorded by different threads into different rings.
//!
//! The contract that keeps this safe to leave compiled into the hot
//! path: **disabled tracing costs one relaxed atomic load and
//! allocates nothing** (pinned by `tests/alloc_disabled.rs`). Rings
//! are preallocated at [`TraceSet::enable`] time, events are `Copy`,
//! and emission into a full ring overwrites the oldest slot while
//! counting the drop in that ring — the trace degrades by forgetting
//! the distant past, never by stalling the serve path or growing
//! without bound.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use isi_core::sync::MutexExt;

use crate::span::now_ns;

/// What a trace event describes. The `a`/`b` payload meaning is
/// listed per variant; unused payloads are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A shard's runner (the token holder: a submitting thread or the
    /// shard's helper) drained and executed one batch. `a` = entries
    /// in the batch, `b` = 1 when the batch was cut at `max_batch`
    /// entries, else 0. A lone direct `get` emits `a = 1, b = 0`.
    BatchFlush,
    /// A shard merge started (the run stack about to fold into the
    /// mid tier, or with it into the main). `a` = entries above the
    /// mid tier pinned for the merge, `b` = 1 for a major merge (the
    /// main is rebuilt), 0 for a minor one.
    MergeStart,
    /// A merged shard version was published. `a` = entries in the mid
    /// tier it carries (0 after a major merge: they went into the
    /// main), `b` = entries left in the residual delta.
    MergePublish,
    /// A WAL record was made durable. `a` = records covered by this
    /// sync (group commit can cover several).
    WalSync,
    /// A producer stalled on a full admission queue, or on a full
    /// delta. `a` = 0 for queue, 1 for delta.
    Backpressure,
    /// A write invalidated hot-cache slots. `a` = keys invalidated.
    CacheInvalidate,
}

impl TraceKind {
    /// Stable snake_case name (trace export, tests).
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::BatchFlush => "batch_flush",
            TraceKind::MergeStart => "merge_start",
            TraceKind::MergePublish => "merge_publish",
            TraceKind::WalSync => "wal_sync",
            TraceKind::Backpressure => "backpressure",
            TraceKind::CacheInvalidate => "cache_invalidate",
        }
    }
}

/// One recorded event. `Copy` so ring writes never allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global order across all shards (from one atomic sequence).
    pub seq: u64,
    /// Start timestamp on the process-wide monotonic clock (ns).
    pub ts_ns: u64,
    /// Duration; 0 renders as an instant event.
    pub dur_ns: u64,
    /// Which shard's ring recorded it.
    pub shard: u32,
    pub kind: TraceKind,
    /// Kind-specific payload (see [`TraceKind`]).
    pub a: u64,
    /// Kind-specific payload (see [`TraceKind`]).
    pub b: u64,
}

#[derive(Default)]
struct Ring {
    /// Preallocated at enable time; grows only up to `cap`.
    buf: Vec<TraceEvent>,
    /// Next overwrite position once `buf.len() == cap`.
    head: usize,
    cap: usize,
    /// Events overwritten since the last [`TraceSet::enable`].
    dropped: u64,
}

/// Per-shard bounded event rings behind one enable flag.
pub struct TraceSet {
    enabled: AtomicBool,
    seq: AtomicU64,
    rings: Vec<Mutex<Ring>>,
}

impl TraceSet {
    /// A disabled trace set for `shards` rings. No event storage is
    /// allocated until [`TraceSet::enable`].
    pub fn new(shards: usize) -> Self {
        Self {
            enabled: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            rings: (0..shards).map(|_| Mutex::default()).collect(),
        }
    }

    /// Turn tracing on with `capacity` event slots per shard,
    /// preallocating every ring so emission never allocates, and reset
    /// each ring's drop count so [`TraceSet::dropped`] describes the
    /// new rings.
    /// `capacity == 0` turns tracing off and frees the rings.
    pub fn enable(&self, capacity: usize) {
        self.enabled.store(false, Ordering::Release);
        for ring in &self.rings {
            let mut ring = ring.plock("obs trace ring");
            ring.buf = Vec::with_capacity(capacity);
            ring.head = 0;
            ring.cap = capacity;
            ring.dropped = 0;
        }
        self.enabled.store(capacity > 0, Ordering::Release);
    }

    /// Whether [`TraceSet::emit`] currently records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record an event that started at `ts_ns` and lasted `dur_ns`
    /// (0 = instant). When disabled this is a single relaxed load.
    #[inline]
    pub fn emit(&self, shard: usize, kind: TraceKind, ts_ns: u64, dur_ns: u64, a: u64, b: u64) {
        if !self.is_enabled() {
            return;
        }
        self.emit_slow(shard, kind, ts_ns, dur_ns, a, b);
    }

    /// Record an instant event stamped with the current time.
    #[inline]
    pub fn emit_now(&self, shard: usize, kind: TraceKind, a: u64, b: u64) {
        if !self.is_enabled() {
            return;
        }
        self.emit_slow(shard, kind, now_ns(), 0, a, b);
    }

    #[cold]
    fn emit_slow(&self, shard: usize, kind: TraceKind, ts_ns: u64, dur_ns: u64, a: u64, b: u64) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ev = TraceEvent {
            seq,
            ts_ns,
            dur_ns,
            shard: shard as u32,
            kind,
            a,
            b,
        };
        let mut ring = self.rings[shard].plock("obs trace ring");
        if ring.cap == 0 {
            // Tracing was turned off after this emit read the flag.
            return;
        }
        if ring.buf.len() < ring.cap {
            ring.buf.push(ev);
        } else {
            let head = ring.head;
            ring.buf[head] = ev;
            ring.head = (head + 1) % ring.cap;
            ring.dropped += 1;
        }
    }

    /// Events overwritten because a ring was full, summed over the
    /// rings.
    pub fn dropped(&self) -> u64 {
        self.rings
            .iter()
            .map(|ring| ring.plock("obs trace ring").dropped)
            .sum()
    }

    /// Copy out every ring's current contents, ordered by sequence
    /// number (a global total order across shards). Does not clear
    /// the rings.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for ring in &self.rings {
            out.extend_from_slice(&ring.plock("obs trace ring").buf);
        }
        out.sort_unstable_by_key(|e| e.seq);
        out
    }
}

/// Render events as a chrome://tracing (Trace Event Format) JSON
/// document. Load the output in `chrome://tracing` or Perfetto:
/// shards appear as threads (`tid`), durations as `X` slices,
/// instants as `i` marks, and the payload lands in `args`.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Kind names are static snake_case identifiers: no escaping.
        out.push_str("{\"name\":\"");
        out.push_str(e.kind.name());
        out.push_str("\",\"cat\":\"isi\",\"pid\":1,\"tid\":");
        out.push_str(&e.shard.to_string());
        // Trace Event Format timestamps are microseconds; emit with
        // nanosecond precision as a decimal fraction.
        out.push_str(&format!(
            ",\"ts\":{}.{:03}",
            e.ts_ns / 1_000,
            e.ts_ns % 1_000
        ));
        if e.dur_ns > 0 {
            out.push_str(&format!(
                ",\"ph\":\"X\",\"dur\":{}.{:03}",
                e.dur_ns / 1_000,
                e.dur_ns % 1_000
            ));
        } else {
            out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
        }
        out.push_str(&format!(
            ",\"args\":{{\"seq\":{},\"a\":{},\"b\":{}}}}}",
            e.seq, e.a, e.b
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_set_records_nothing() {
        let t = TraceSet::new(2);
        t.emit(0, TraceKind::BatchFlush, 10, 5, 3, 1);
        t.emit_now(1, TraceKind::WalSync, 1, 0);
        assert!(!t.is_enabled());
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn enable_zero_capacity_stays_off() {
        let t = TraceSet::new(1);
        t.enable(0);
        assert!(!t.is_enabled());
        // It also turns an enabled set off and frees its rings; an
        // emit that read the flag before it cleared finds no ring.
        t.enable(4);
        t.emit(0, TraceKind::WalSync, 1, 0, 1, 0);
        t.enable(0);
        assert!(!t.is_enabled());
        assert!(t.events().is_empty());
        t.emit_slow(0, TraceKind::WalSync, 2, 0, 1, 0);
        assert!(t.events().is_empty());
    }

    #[test]
    fn events_are_globally_ordered_across_shards() {
        let t = TraceSet::new(2);
        t.enable(8);
        t.emit(0, TraceKind::BatchFlush, 100, 10, 4, 1);
        t.emit(1, TraceKind::MergeStart, 105, 0, 7, 0);
        t.emit(0, TraceKind::MergePublish, 130, 0, 7, 2);
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(evs[1].kind, TraceKind::MergeStart);
        assert_eq!(evs[1].shard, 1);
    }

    #[test]
    fn full_ring_overwrites_oldest_and_counts_drops() {
        let t = TraceSet::new(1);
        t.enable(2);
        for i in 0..5u64 {
            t.emit(0, TraceKind::BatchFlush, i, 0, i, 0);
        }
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        // The two newest survive.
        assert_eq!(evs.iter().map(|e| e.a).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(t.dropped(), 3);
        // Re-enabling starts fresh rings, and the drop count with them.
        t.enable(2);
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn chrome_export_shapes_slices_and_instants() {
        let t = TraceSet::new(2);
        t.enable(4);
        t.emit(0, TraceKind::BatchFlush, 1_500, 2_250, 9, 1);
        t.emit(1, TraceKind::WalSync, 4_000, 0, 1, 0);
        let json = chrome_trace_json(&t.events());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"batch_flush\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2.250"));
        assert!(json.contains("\"name\":\"wal_sync\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"tid\":1"));
        assert!(json.ends_with("]}"));
    }
}
