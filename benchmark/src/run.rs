//! The measured run: set up several times, drive each service from one
//! closed-loop client for a fixed time, check every result, recover
//! the durable store and read every acknowledged write back.

use std::path::Path;
use std::time::{Duration, Instant};

use isi_serve::{LookupService, ServeConfig, ShardedStore};

use crate::context;
use crate::gen::{Op, Oracle};
use crate::stats::{median, Hist};
use crate::workload::{Call, Scale, TempDir, Workload};

/// What a run reports: the metrics the contract names, operation
/// counts, and free-form lines for the human reader.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

/// The one client. Callers here are join operators that wait for
/// their reply, so the loop is closed: the next call is issued when
/// the previous one has returned and been checked.
pub struct Client {
    /// What every key must hold, this client's own writes included.
    pub oracle: Oracle,
    pub attempted: u64,
    pub failed: u64,
}

impl Client {
    pub fn new(oracle: Oracle) -> Self {
        Self {
            oracle,
            attempted: 0,
            failed: 0,
        }
    }

    /// Issue one call and return its latency and the keys it resolved
    /// or wrote. The result is checked against the oracle after the
    /// clock has stopped; a mismatch is a failed operation.
    pub fn issue(&mut self, svc: &LookupService, call: Call<'_>) -> (Duration, u64) {
        match call {
            Call::Many(keys) => {
                let t = Instant::now();
                let got = svc.get_many(keys);
                let latency = t.elapsed();
                self.attempted += keys.len() as u64;
                self.failed += keys.len().abs_diff(got.len()) as u64;
                for (&k, &v) in keys.iter().zip(&got) {
                    self.failed += u64::from(self.oracle.get(k) != v);
                }
                (latency, keys.len() as u64)
            }
            Call::One(op) => {
                let t = Instant::now();
                let got = match op {
                    Op::Get(k) => svc.get(k),
                    Op::Put(k, v) => svc.put(k, v),
                    Op::Remove(k) => svc.remove(k),
                };
                let latency = t.elapsed();
                let want = match op {
                    Op::Get(k) => self.oracle.get(k),
                    Op::Put(k, v) => self.oracle.put(k, v),
                    Op::Remove(k) => self.oracle.remove(k),
                };
                self.attempted += 1;
                self.failed += u64::from(got != want);
                (latency, 1)
            }
        }
    }
}

/// Latencies of a round's measured windows, pooled.
#[derive(Default)]
pub struct Latencies {
    pub read: Hist,
    pub write: Hist,
}

impl Latencies {
    pub fn record(&mut self, call: Call<'_>, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        match call {
            Call::One(op) if op.is_write() => self.write.record(ns),
            _ => self.read.record(ns),
        }
    }
}

/// Drive calls from stream position `pos` until they have taken `len`
/// of call time; returns keys per second of call time. The clock runs
/// only inside calls, so checking results costs the program nothing.
fn window(
    client: &mut Client,
    svc: &LookupService,
    w: &Workload,
    pos: &mut usize,
    len: Duration,
    mut record: Option<&mut Latencies>,
) -> f64 {
    let (mut busy, mut keys) = (Duration::ZERO, 0u64);
    while busy < len {
        let call = w.stream.call(*pos);
        *pos += 1;
        let (latency, n) = client.issue(svc, call);
        busy += latency;
        keys += n;
        if let Some(lat) = record.as_deref_mut() {
            lat.record(call, latency);
        }
    }
    keys as f64 / busy.as_secs_f64()
}

/// Close the service, drop the store, recover it from `dir` alone and
/// read back every key the client wrote. Returns the recovery time.
pub fn recover_and_check(w: &Workload, dir: &Path, oracle: &Oracle, out: &mut Outcome) -> Duration {
    let t = Instant::now();
    let recovered = ShardedStore::recover(w.backend, Workload::durable_cfg(dir));
    let took = t.elapsed();
    match recovered {
        Ok(store) => {
            for (key, want) in oracle.written() {
                out.attempted += 1;
                out.failed += u64::from(store.get(key) != want);
            }
        }
        Err(e) => {
            out.notes.push(format!("recovery failed: {e}"));
            out.attempted += 1;
            out.failed += 1;
        }
    }
    took
}

/// The untraced run of `w`: every end-to-end metric.
///
/// One run is `scale.rounds` independent repetitions spread over its
/// whole length, each a full set-up, a warm-up and a few short
/// measured windows on the store it built. This machine's noise is
/// one-sided — bursts that slow the build path for a few set-ups, or
/// the service for some seconds — so within a round the median window
/// is taken and across rounds the best round, as best-of-N timing does.
pub fn measure(w: &Workload, scale: &Scale, seconds: f64, out_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let window_len = Duration::from_secs_f64(seconds / (scale.rounds * scale.windows) as f64);
    let (mut setups, mut rates, mut read_p50s) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples = Vec::new();
    let mut pos = 0;
    let mut built_rss = 0.0;
    let mut last = None;
    for round in 0..scale.rounds {
        // The previous round's store goes before the next is built,
        // and its WAL directory with it: a stale snapshot there would
        // be recovered in place of this round's.
        drop(last.take());
        let wal = w
            .durable
            .then(|| TempDir::create(out_dir, &format!("wal-{}", w.name)).expect("create WAL dir"));
        let t = Instant::now();
        let svc = LookupService::start(
            w.build_store(wal.as_ref().map(TempDir::path)),
            ServeConfig::default(),
        );
        setups.push(t.elapsed().as_secs_f64());
        if round == 0 {
            built_rss = context::peak_rss_mib();
        }
        // A fresh store: the client's earlier writes went with the old one.
        let mut client = Client::new(Oracle::new(w.ds));
        for _ in 0..scale.warmup_windows {
            window(&mut client, &svc, w, &mut pos, window_len, None);
        }
        let mut lat = Latencies::default();
        let windows: Vec<f64> = (0..scale.windows)
            .map(|_| window(&mut client, &svc, w, &mut pos, window_len, Some(&mut lat)))
            .collect();
        rates.push(median(&windows));
        read_p50s.push(lat.read.quantile(0.5) / 1e3);
        samples.push(format!(
            "{} reads (p99 {:.0} us) + {} writes (p50 {:.0} us, p99 {:.0} us)",
            lat.read.count(),
            lat.read.quantile(0.99) / 1e3,
            lat.write.count(),
            lat.write.quantile(0.5) / 1e3,
            lat.write.quantile(0.99) / 1e3,
        ));
        out.attempted += client.attempted;
        out.failed += client.failed;
        last = Some((svc, client.oracle, wal));
    }
    let (svc, oracle, wal) = last.expect("at least one round");
    let stats = svc.stats();
    // The process's peak, serving included. On the durable workload
    // that depends on which merge overlaps which (273 or 298 MiB), so
    // there it is the build path's peak, read after the first set-up;
    // serving memory of the merging store is `store.peak_rss_mib`.
    let end_rss = context::peak_rss_mib();
    let peak_rss = if w.durable { built_rss } else { end_rss };
    drop(svc);
    if let Some(dir) = wal.as_ref().map(TempDir::path) {
        let took = recover_and_check(w, dir, &oracle, &mut out);
        out.notes.push(format!(
            "recovered in {:.3} s from {} ({}); {} written keys read back",
            took.as_secs_f64(),
            dir.display(),
            context::fs_type(dir),
            oracle.written().count(),
        ));
    }

    out.metrics = vec![
        ("setup_s", median(&setups), "s"),
        (
            "keys_per_s",
            rates.iter().copied().fold(f64::MIN, f64::max),
            "1/s",
        ),
        (
            "read_p50_us",
            read_p50s.iter().copied().fold(f64::MAX, f64::min),
            "us",
        ),
        ("peak_rss_mib", peak_rss, "MiB"),
    ];
    out.notes.push(format!(
        "{} rounds of {} + {} windows of {:.3} s call time; per round: set-up {setups:.3?} s, \
         median window keys/s {rates:.0?}, read p50 {read_p50s:.1?} us",
        scale.rounds,
        scale.warmup_windows,
        scale.windows,
        window_len.as_secs_f64(),
    ));
    out.notes
        .push(format!("calls per round: {}", samples.join("; ")));
    out.notes.push(format!(
        "VmHWM {built_rss:.1} MiB after the first set-up, {end_rss:.1} MiB after the last window"
    ));
    out.notes.push(format!(
        "service of the last round: {} batches ({} full), mean batch {:.2} entries, {} merges, {} WAL records",
        stats.batches,
        stats.full_flushes,
        stats.mean_batch(),
        stats.merges,
        stats.wal_records,
    ));
    out
}
