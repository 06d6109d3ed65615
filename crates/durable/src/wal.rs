//! WAL record and snapshot codecs, file naming, and the crash-safe
//! store-directory protocol (init, snapshot publish, WAL truncation,
//! per-shard recovery).
//!
//! ## File formats (all integers little-endian)
//!
//! **WAL record** (`shard-NNNN.wal` is a concatenation of these):
//!
//! ```text
//! [len: u32][crc: u32][seq: u64][count: u32][count × (key: u64, present: u8, val: u64)]
//! ```
//!
//! `len` is the byte length of everything after the `len` field
//! (`16 + 17·count`). `crc` is the CRC-32 of the `len` field plus
//! everything after the `crc` field, so corruption of the length
//! prefix, the sequence number, or any payload byte is detected. An
//! entry with `present == 0` is a tombstone (`val` is then 0).
//!
//! **Snapshot** (`shard-NNNN.snap.<seq>`):
//!
//! ```text
//! ["ISNP"][version: u32][seq: u64][count: u64][count × (key: u64, val: u64)][crc: u32]
//! ```
//!
//! The trailing CRC-32 covers every preceding byte. `seq` stamps the
//! WAL sequence the snapshot covers: recovery replays only records
//! with `seq > snapshot.seq` on top of it.
//!
//! **Meta** (`meta`): `["IMTA"][version: u32][shards: u32][crc: u32]`.
//!
//! ## Crash safety
//!
//! Snapshots and WAL rewrites are published by write-to-temp → fsync
//! → rename → fsync-dir; the WAL is only rewritten *after* its
//! covering snapshot is durable (see the crate docs for the full
//! invariant list). Recovery tolerates any prefix of that protocol:
//! leftover temp files are deleted, stale or invalid snapshots are
//! skipped (newest valid wins) and deleted, and a torn/corrupt WAL
//! tail is discarded and truncated away so future appends extend a
//! valid log.

use std::io;

use crate::crc::{crc32, crc32_update};
use crate::fs::Fs;

/// Cap on operations per record; `len` fields implying more are
/// treated as corruption, bounding what a torn length prefix can make
/// recovery allocate.
pub(crate) const MAX_RUN_OPS: usize = 1 << 16;

const ENTRY_BYTES: usize = 17; // key u64 + present u8 + val u64
const BODY_FIXED: usize = 16; // crc u32 + seq u64 + count u32
const MAX_BODY_LEN: usize = BODY_FIXED + MAX_RUN_OPS * ENTRY_BYTES;

const SNAP_MAGIC: &[u8; 4] = b"ISNP";
const SNAP_VERSION: u32 = 1;
const META_MAGIC: &[u8; 4] = b"IMTA";
const META_VERSION: u32 = 1;

/// The store metadata file name.
pub(crate) const META_NAME: &str = "meta";

/// The WAL file of `shard`.
pub fn wal_name(shard: usize) -> String {
    format!("shard-{shard:04}.wal")
}

/// The committed snapshot of `shard` covering WAL sequence `seq`.
pub(crate) fn snap_name(shard: usize, seq: u64) -> String {
    format!("shard-{shard:04}.snap.{seq:020}")
}

/// The in-flight snapshot temp file of `shard`.
pub fn snap_tmp_name(shard: usize) -> String {
    format!("shard-{shard:04}.snap.tmp")
}

/// The in-flight WAL-rewrite temp file of `shard`.
pub(crate) fn wal_tmp_name(shard: usize) -> String {
    format!("shard-{shard:04}.wal.tmp")
}

/// Parse a [`snap_name`] back into `(shard, seq)`.
fn parse_snap_name(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix("shard-")?;
    let (shard, rest) = rest.split_once(".snap.")?;
    Some((shard.parse().ok()?, rest.parse().ok()?))
}

/// One decoded WAL record: a group-committed write run. Tombstones
/// are `(key, None)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotone per-shard sequence number.
    pub seq: u64,
    /// The run's effective operations, in admission order.
    pub ops: Vec<(u64, Option<u64>)>,
}

/// The result of decoding a WAL byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalDecode {
    /// Every whole, checksum-valid record, in file order.
    pub records: Vec<WalRecord>,
    /// Bytes of valid records; everything past this is a discarded
    /// torn/truncated/corrupt tail.
    pub valid_len: usize,
    /// True when the whole stream decoded (no tail was discarded).
    pub clean: bool,
}

/// Encode one write run as a WAL record.
///
/// # Panics
/// Panics if `ops` holds more than 2^16 ops (a service batch is
/// orders of magnitude smaller).
pub fn encode_record(seq: u64, ops: &[(u64, Option<u64>)]) -> Vec<u8> {
    assert!(ops.len() <= MAX_RUN_OPS, "run of {} ops", ops.len());
    let len = BODY_FIXED + ops.len() * ENTRY_BYTES;
    let mut buf = Vec::with_capacity(4 + len);
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    buf.extend_from_slice(&[0u8; 4]); // crc patched below
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for &(key, val) in ops {
        buf.extend_from_slice(&key.to_le_bytes());
        buf.push(u8::from(val.is_some()));
        buf.extend_from_slice(&val.unwrap_or(0).to_le_bytes());
    }
    let crc = record_crc(&buf);
    buf[4..8].copy_from_slice(&crc.to_le_bytes());
    buf
}

/// The CRC of one framed record (`buf` = len+crc+seq+payload): covers
/// the `len` field and everything after the `crc` field.
fn record_crc(buf: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0, &buf[..4]), &buf[8..])
}

fn read_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))
}

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

/// Decode a WAL byte stream, stopping (not panicking) at the first
/// torn, truncated, or checksum-invalid record.
pub fn decode_wal(bytes: &[u8]) -> WalDecode {
    let mut records = Vec::new();
    let mut at = 0usize;
    loop {
        let rest = &bytes[at..];
        if rest.len() < 4 {
            break; // truncated length prefix (or exactly consumed)
        }
        let len = read_u32(rest) as usize;
        if !(BODY_FIXED..=MAX_BODY_LEN).contains(&len) || rest.len() - 4 < len {
            break; // nonsense or truncated record
        }
        let frame = &rest[..4 + len];
        let stored = read_u32(&frame[4..]);
        if record_crc(frame) != stored {
            break; // bit flip / torn rewrite
        }
        let seq = read_u64(&frame[8..]);
        let count = read_u32(&frame[16..]) as usize;
        if len != BODY_FIXED + count * ENTRY_BYTES {
            break; // internally inconsistent (CRC collision would be needed)
        }
        let mut ops = Vec::with_capacity(count);
        let mut ok = true;
        for i in 0..count {
            let e = &frame[20 + i * ENTRY_BYTES..];
            let key = read_u64(e);
            let val = read_u64(&e[9..]);
            match e[8] {
                0 => ops.push((key, None)),
                1 => ops.push((key, Some(val))),
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            break;
        }
        records.push(WalRecord { seq, ops });
        at += 4 + len;
    }
    WalDecode {
        records,
        valid_len: at,
        clean: at == bytes.len(),
    }
}

/// Encode a shard snapshot covering WAL sequence `seq`: the `len`
/// pairs of `pairs` that `keep` accepts, in input order (strictly
/// ascending by key, as every shard's pairs are). A store's build
/// passes its whole routed input with `keep` testing the route, so a
/// shard's pairs are never collected first; a merge passes its merged
/// pairs and keeps every one.
///
/// The loop has no branch on `keep`: every pair is written at the
/// next free slot, and the slot advances only when `keep` accepted
/// it, so a 50/50 route costs no mispredicts. The buffer has one
/// slot of slack past the last pair for the writes that do not
/// advance; the CRC takes four of those bytes.
///
/// # Panics
/// Panics if `keep` accepts other than `len` pairs: the count is
/// written into the header ahead of them.
pub fn encode_snapshot(
    seq: u64,
    len: usize,
    pairs: &[(u64, u64)],
    keep: impl Fn(u64) -> bool,
) -> Vec<u8> {
    let mut buf = vec![0u8; snapshot_scratch(len)];
    encode_snapshot_into(&mut buf, seq, len, pairs, keep);
    buf
}

/// The bytes [`encode_snapshot_into`] works in for a snapshot of `len`
/// pairs: the snapshot and the slot of slack its encode loop writes.
fn snapshot_scratch(len: usize) -> usize {
    24 + len * 16 + 16
}

/// [`encode_snapshot`] into `buf`, which it overwrites. A buffer that
/// already holds [`snapshot_scratch`] bytes is used as it is: one
/// buffer encodes many snapshots and is first touched once.
fn encode_snapshot_into(
    buf: &mut Vec<u8>,
    seq: u64,
    len: usize,
    pairs: &[(u64, u64)],
    keep: impl Fn(u64) -> bool,
) {
    let body = 24 + len * 16;
    buf.resize(snapshot_scratch(len), 0);
    buf[..4].copy_from_slice(SNAP_MAGIC);
    buf[4..8].copy_from_slice(&SNAP_VERSION.to_le_bytes());
    buf[8..16].copy_from_slice(&seq.to_le_bytes());
    buf[16..24].copy_from_slice(&(len as u64).to_le_bytes());
    let mut at = 24;
    for &(k, v) in pairs {
        let Some(slot) = buf.get_mut(at..at + 16) else {
            panic!("snapshot of {len} pairs");
        };
        slot[..8].copy_from_slice(&k.to_le_bytes());
        slot[8..].copy_from_slice(&v.to_le_bytes());
        at += 16 * usize::from(keep(k));
    }
    assert_eq!(at, body, "snapshot of {len} pairs");
    buf.truncate(body);
    let crc = crc32(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Decode and validate a snapshot; `None` if it is truncated, has the
/// wrong magic/version, or fails its checksum.
pub fn decode_snapshot(bytes: &[u8]) -> Option<(u64, Vec<(u64, u64)>)> {
    if bytes.len() < 28 || &bytes[..4] != SNAP_MAGIC {
        return None;
    }
    if read_u32(&bytes[4..]) != SNAP_VERSION {
        return None;
    }
    let seq = read_u64(&bytes[8..]);
    let count = read_u64(&bytes[16..]);
    let body = 24usize.checked_add(usize::try_from(count).ok()?.checked_mul(16)?)?;
    if bytes.len() != body + 4 {
        return None;
    }
    if crc32(&bytes[..body]) != read_u32(&bytes[body..]) {
        return None;
    }
    let mut pairs = Vec::with_capacity(count as usize);
    for i in 0..count as usize {
        let e = &bytes[24 + i * 16..];
        pairs.push((read_u64(e), read_u64(&e[8..])));
    }
    Some((seq, pairs))
}

fn encode_meta(shards: u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    buf.extend_from_slice(META_MAGIC);
    buf.extend_from_slice(&META_VERSION.to_le_bytes());
    buf.extend_from_slice(&shards.to_le_bytes());
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Read and validate the store meta file; returns the shard count.
pub fn read_meta(fs: &dyn Fs) -> io::Result<u32> {
    let bytes = fs.read(META_NAME)?;
    if bytes.len() != 16 || &bytes[..4] != META_MAGIC {
        return Err(invalid("store meta corrupt".into()));
    }
    if read_u32(&bytes[4..]) != META_VERSION {
        return Err(invalid("store meta has an unknown version".into()));
    }
    if crc32(&bytes[..12]) != read_u32(&bytes[12..]) {
        return Err(invalid("store meta failed its checksum".into()));
    }
    Ok(read_u32(&bytes[8..]))
}

/// Whether `name` is a file of a store in this directory (the meta
/// file, or any shard's snapshot, WAL or temp file).
fn is_store_file(name: &str) -> bool {
    name == META_NAME || name.starts_with("shard-")
}

/// Initialize a fresh store directory: the meta file, one seq-0
/// snapshot per shard holding its seeded pairs, and one empty WAL per
/// shard — all made durable by a single trailing directory sync. A
/// crash before that sync leaves no readable meta, i.e. no store.
///
/// The files of a store that already lives in the directory are
/// removed first — its snapshots carry higher sequence numbers than
/// the new seq-0 ones and recovery would prefer them. The old meta
/// goes before anything else, so a crash while clearing leaves no
/// store rather than half of the old one.
///
/// Shard `shard` holds the `lens[shard]` pairs of `pairs` (strictly
/// ascending by key) that `route` sends to it. The snapshots are
/// encoded one after another into one buffer sized to the largest,
/// each written and synced before the next is encoded, so one
/// snapshot's bytes are held at a time and their pages are faulted in
/// once.
pub fn init_store(
    fs: &dyn Fs,
    lens: &[usize],
    pairs: &[(u64, u64)],
    route: impl Fn(u64) -> usize,
) -> io::Result<()> {
    let stale: Vec<String> = fs
        .list()?
        .into_iter()
        .filter(|n| is_store_file(n))
        .collect();
    if stale.iter().any(|n| n == META_NAME) {
        fs.remove(META_NAME)?;
        fs.sync_dir()?;
    }
    for name in stale.iter().filter(|n| *n != META_NAME) {
        fs.remove(name)?;
    }
    let count = u32::try_from(lens.len()).expect("shard count fits u32");
    fs.write_all(META_NAME, &encode_meta(count))?;
    fs.sync(META_NAME)?;
    let largest = lens.iter().copied().max().unwrap_or(0);
    let mut bytes = vec![0u8; snapshot_scratch(largest)];
    for (shard, &len) in lens.iter().enumerate() {
        let snap = snap_name(shard, 0);
        encode_snapshot_into(&mut bytes, 0, len, pairs, |k| route(k) == shard);
        fs.write_all(&snap, &bytes)?;
        fs.sync(&snap)?;
        let wal = wal_name(shard);
        fs.write_all(&wal, &[])?;
        fs.sync(&wal)?;
    }
    fs.sync_dir()
}

/// Serialize and fsync a snapshot of `pairs` (covering `seq`) to the
/// shard's temp file, returning the temp name. Run *outside* the
/// shard write lock — this is the bulky part; only
/// [`commit_snapshot`] needs the lock.
pub fn write_snapshot_tmp(
    fs: &dyn Fs,
    shard: usize,
    seq: u64,
    pairs: &[(u64, u64)],
) -> io::Result<String> {
    let tmp = snap_tmp_name(shard);
    fs.write_all(&tmp, &encode_snapshot(seq, pairs.len(), pairs, |_| true))?;
    fs.sync(&tmp)?;
    Ok(tmp)
}

/// Atomically publish a fsynced snapshot temp file as
/// `shard-NNNN.snap.<seq>` and delete superseded snapshots (best
/// effort — recovery also skips and deletes stale ones).
pub fn commit_snapshot(fs: &dyn Fs, shard: usize, seq: u64, tmp: &str) -> io::Result<()> {
    fs.rename(tmp, &snap_name(shard, seq))?;
    fs.sync_dir()?;
    for name in fs.list()? {
        if let Some((s, old)) = parse_snap_name(&name) {
            if s == shard && old < seq {
                let _ = fs.remove(&name);
            }
        }
    }
    Ok(())
}

/// Rewrite the shard's WAL down to `residual` (records at `seq`,
/// chunked to `MAX_RUN_OPS`; an empty residual leaves an empty
/// log), via temp + fsync + rename + dir-sync. Call only *after* the
/// covering snapshot committed: a crash before the rename keeps the
/// old WAL, whose extra records the snapshot's `seq` filter makes
/// harmless.
pub fn rewrite_wal(
    fs: &dyn Fs,
    shard: usize,
    seq: u64,
    residual: &[(u64, Option<u64>)],
) -> io::Result<()> {
    let tmp = wal_tmp_name(shard);
    let mut bytes = Vec::new();
    for chunk in residual.chunks(MAX_RUN_OPS) {
        bytes.extend_from_slice(&encode_record(seq, chunk));
    }
    fs.write_all(&tmp, &bytes)?;
    fs.sync(&tmp)?;
    fs.rename(&tmp, &wal_name(shard))?;
    fs.sync_dir()
}

/// One shard's recovered durable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecovery {
    /// WAL sequence the chosen snapshot covers.
    pub snap_seq: u64,
    /// The snapshot's sorted, duplicate-free pairs (empty if no valid
    /// snapshot survived — a crash during init).
    pub pairs: Vec<(u64, u64)>,
    /// Valid WAL records with `seq > snap_seq`, in log order; replay
    /// these onto the snapshot.
    pub tail: Vec<WalRecord>,
    /// The sequence to continue appending from (max of snapshot and
    /// tail sequences).
    pub next_seq: u64,
    /// True when recovery had to repair something: a torn WAL tail
    /// truncated away, or stale/invalid snapshot or temp files
    /// deleted.
    pub repaired: bool,
}

/// Recover one shard: pick the newest valid snapshot (deleting stale
/// and invalid ones), decode the WAL and discard its torn tail (also
/// truncating it on disk so future appends extend valid records), and
/// delete leftover temp files.
///
/// Snapshots are tried newest first and the first valid one wins;
/// the older ones are deleted unread.
pub fn recover_shard(fs: &dyn Fs, shard: usize) -> io::Result<ShardRecovery> {
    let mut best: Option<(u64, Vec<(u64, u64)>)> = None;
    let mut doomed: Vec<String> = Vec::new();
    let mut snaps: Vec<(u64, String)> = Vec::new();
    let snap_tmp = snap_tmp_name(shard);
    let wal_tmp = wal_tmp_name(shard);
    for name in fs.list()? {
        if name == snap_tmp || name == wal_tmp {
            doomed.push(name);
        } else if let Some((s, seq)) = parse_snap_name(&name) {
            if s == shard {
                snaps.push((seq, name));
            }
        }
    }
    snaps.sort_unstable_by(|a, b| b.cmp(a));
    for (seq, name) in snaps {
        if best.is_none() {
            // A committed snapshot was fsynced before its rename, but
            // a duplicate-seq leftover or external corruption must not
            // take down recovery: validate, newest valid wins.
            match fs.read(&name).ok().and_then(|b| decode_snapshot(&b)) {
                Some((stamped, pairs)) if stamped == seq => {
                    best = Some((seq, pairs));
                    continue;
                }
                _ => {} // truncated, corrupt, or mis-stamped
            }
        }
        doomed.push(name);
    }
    let mut repaired = !doomed.is_empty();
    for name in doomed {
        let _ = fs.remove(&name);
    }
    let (snap_seq, pairs) = best.unwrap_or((0, Vec::new()));
    let wal_bytes = fs.read(&wal_name(shard)).unwrap_or_default();
    let decoded = decode_wal(&wal_bytes);
    if !decoded.clean {
        // Truncate the torn tail away (atomically — a crash here must
        // not lose the valid prefix) so appends resume after valid
        // records.
        fs.write_all(&wal_tmp, &wal_bytes[..decoded.valid_len])?;
        fs.sync(&wal_tmp)?;
        fs.rename(&wal_tmp, &wal_name(shard))?;
        fs.sync_dir()?;
        repaired = true;
    }
    let mut next_seq = snap_seq;
    let mut tail = Vec::new();
    for rec in decoded.records {
        next_seq = next_seq.max(rec.seq);
        if rec.seq > snap_seq {
            tail.push(rec);
        }
    }
    Ok(ShardRecovery {
        snap_seq,
        pairs,
        tail,
        next_seq,
        repaired,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::MemFs;

    /// [`init_store`] over whole per-shard vectors.
    fn init(fs: &MemFs, shards: &[Vec<(u64, u64)>]) -> io::Result<()> {
        let lens: Vec<usize> = shards.iter().map(Vec::len).collect();
        let route = |k: u64| {
            shards
                .iter()
                .position(|p| p.iter().any(|&(seeded, _)| seeded == k))
                .expect("a seeded key")
        };
        init_store(fs, &lens, &shards.concat(), route)
    }

    fn ops(n: u64) -> Vec<(u64, Option<u64>)> {
        (0..n)
            .map(|i| (i * 3, (i % 4 != 0).then_some(i + 100)))
            .collect()
    }

    #[test]
    fn record_roundtrip_including_tombstones() {
        let run = ops(9);
        let bytes = encode_record(42, &run);
        let dec = decode_wal(&bytes);
        assert!(dec.clean);
        assert_eq!(dec.valid_len, bytes.len());
        assert_eq!(dec.records, vec![WalRecord { seq: 42, ops: run }]);
    }

    #[test]
    fn zero_length_run_records_are_valid() {
        // The store never appends empty runs, but the codec must not
        // choke on them (rewrite_wal uses an empty *file* instead).
        let bytes = encode_record(7, &[]);
        assert_eq!(bytes.len(), 4 + BODY_FIXED);
        let dec = decode_wal(&bytes);
        assert!(dec.clean);
        assert_eq!(
            dec.records,
            vec![WalRecord {
                seq: 7,
                ops: vec![]
            }]
        );
    }

    #[test]
    fn max_size_records_roundtrip_and_larger_lengths_are_rejected() {
        let run = ops(MAX_RUN_OPS as u64);
        let bytes = encode_record(1, &run);
        let dec = decode_wal(&bytes);
        assert!(dec.clean);
        assert_eq!(dec.records[0].ops.len(), MAX_RUN_OPS);
        // A length prefix past the cap is corruption, not an
        // allocation request.
        let mut huge = bytes.clone();
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let dec = decode_wal(&huge);
        assert!(dec.records.is_empty());
        assert_eq!(dec.valid_len, 0);
        assert!(!dec.clean);
    }

    #[test]
    #[should_panic(expected = "run of")]
    fn encoding_an_oversized_run_panics() {
        encode_record(1, &ops(MAX_RUN_OPS as u64 + 1));
    }

    #[test]
    fn crc_mismatch_discards_the_tail_but_keeps_valid_prefix_records() {
        let mut bytes = encode_record(1, &ops(3));
        let first = bytes.len();
        bytes.extend_from_slice(&encode_record(2, &ops(5)));
        // Flip one payload bit in the second record.
        let n = bytes.len();
        bytes[n - 3] ^= 0x10;
        let dec = decode_wal(&bytes);
        assert_eq!(dec.records.len(), 1);
        assert_eq!(dec.records[0].seq, 1);
        assert_eq!(dec.valid_len, first);
        assert!(!dec.clean);
    }

    #[test]
    fn truncated_length_prefix_and_truncated_body_are_discarded() {
        let whole = encode_record(5, &ops(4));
        for cut in [1usize, 2, 3] {
            let dec = decode_wal(&whole[..cut]);
            assert!(dec.records.is_empty() && !dec.clean, "cut={cut}");
        }
        // A full first record followed by a partial second one.
        let mut bytes = whole.clone();
        bytes.extend_from_slice(&encode_record(6, &ops(4))[..10]);
        let dec = decode_wal(&bytes);
        assert_eq!(dec.records.len(), 1);
        assert_eq!(dec.valid_len, whole.len());
        assert!(!dec.clean);
        // Empty input is a clean, empty log.
        let dec = decode_wal(&[]);
        assert!(dec.clean && dec.records.is_empty());
    }

    #[test]
    fn corrupt_length_that_still_frames_is_caught_by_the_crc() {
        let mut bytes = encode_record(9, &ops(8));
        // Shrink the length so the frame still fits in the buffer:
        // the CRC covers the length field, so this cannot reframe.
        let len = read_u32(&bytes) - ENTRY_BYTES as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        let dec = decode_wal(&bytes);
        assert!(dec.records.is_empty());
        assert!(!dec.clean);
    }

    #[test]
    fn snapshot_roundtrip_and_corruption_detection() {
        let pairs: Vec<(u64, u64)> = (0..100).map(|i| (i * 7, i)).collect();
        let bytes = encode_snapshot(33, pairs.len(), &pairs, |_| true);
        assert_eq!(decode_snapshot(&bytes), Some((33, pairs.clone())));
        assert_eq!(decode_snapshot(&bytes[..bytes.len() - 1]), None);
        assert_eq!(decode_snapshot(b"ISNPxxxx"), None);
        let mut flipped = bytes.clone();
        flipped[40] ^= 1;
        assert_eq!(decode_snapshot(&flipped), None);
        let empty = encode_snapshot(0, 0, &[], |_| true);
        assert_eq!(decode_snapshot(&empty), Some((0, vec![])));
    }

    #[test]
    #[should_panic(expected = "snapshot of 2 pairs")]
    fn a_snapshot_stream_shorter_than_its_count_panics() {
        encode_snapshot(0, 2, &[(1, 1)], |_| true);
    }

    #[test]
    fn a_route_that_keeps_more_than_its_count_panics() {
        // One pair too many, last or not: caught by the slack slot's
        // bound or by the final length check.
        for n in [2, 3] {
            let pairs: Vec<(u64, u64)> = (0..n).map(|k| (k, k)).collect();
            let caught = std::panic::catch_unwind(|| encode_snapshot(0, 1, &pairs, |_| true));
            let msg = caught.expect_err("too many pairs kept");
            let msg = msg
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(msg.contains("snapshot of 1 pairs"), "{n} pairs: {msg}");
        }
    }

    #[test]
    fn meta_roundtrip_and_validation() {
        let fs = MemFs::new();
        init(&fs, &[vec![(1, 2)], vec![]]).unwrap();
        assert_eq!(read_meta(&fs).unwrap(), 2);
        fs.write_all(META_NAME, b"IMTAgarbagegarb").unwrap();
        assert!(read_meta(&fs).is_err());
        fs.remove(META_NAME).unwrap();
        assert!(read_meta(&fs).is_err());
    }

    #[test]
    fn init_recover_roundtrip_with_wal_tail() {
        let fs = MemFs::new();
        let seeded = vec![vec![(10, 1), (20, 2)], vec![(15, 3)]];
        init(&fs, &seeded).unwrap();
        // Shard 0 gets two more runs.
        fs.append(&wal_name(0), &encode_record(1, &[(10, Some(9))]))
            .unwrap();
        fs.append(
            &wal_name(0),
            &encode_record(2, &[(20, None), (30, Some(5))]),
        )
        .unwrap();
        let rec = recover_shard(&fs, 0).unwrap();
        assert_eq!(rec.snap_seq, 0);
        assert_eq!(rec.pairs, vec![(10, 1), (20, 2)]);
        assert_eq!(rec.tail.len(), 2);
        assert_eq!(rec.next_seq, 2);
        assert!(!rec.repaired);
        let rec1 = recover_shard(&fs, 1).unwrap();
        assert_eq!(rec1.pairs, vec![(15, 3)]);
        assert!(rec1.tail.is_empty());
    }

    #[test]
    fn snapshot_commit_filters_already_covered_records() {
        let fs = MemFs::new();
        init(&fs, &[vec![]]).unwrap();
        fs.append(&wal_name(0), &encode_record(1, &[(1, Some(1))]))
            .unwrap();
        fs.append(&wal_name(0), &encode_record(2, &[(2, Some(2))]))
            .unwrap();
        // Snapshot covering seq 1 commits, but the crash hits before
        // the WAL rewrite: both records remain, replay must skip seq 1.
        let tmp = write_snapshot_tmp(&fs, 0, 1, &[(1, 1)]).unwrap();
        commit_snapshot(&fs, 0, 1, &tmp).unwrap();
        let rec = recover_shard(&fs, 0).unwrap();
        assert_eq!(rec.snap_seq, 1);
        assert_eq!(rec.pairs, vec![(1, 1)]);
        assert_eq!(rec.tail.len(), 1);
        assert_eq!(rec.tail[0].seq, 2);
        // After the rewrite, only the residual record remains.
        rewrite_wal(&fs, 0, 2, &[(2, Some(2))]).unwrap();
        let rec = recover_shard(&fs, 0).unwrap();
        assert_eq!(rec.tail.len(), 1);
        assert_eq!(rec.tail[0].ops, vec![(2, Some(2))]);
        assert_eq!(rec.next_seq, 2);
    }

    /// Shard 0 with four snapshots — seq 0 (from init), 5 and 7
    /// (valid), 9 (corrupt: the newest must NOT win) — and leftover
    /// temp files from an interrupted publish.
    fn stale_snapshots_layout(fs: &MemFs) {
        init(fs, &[vec![]]).unwrap();
        fs.write_all(
            &snap_name(0, 5),
            &encode_snapshot(5, 1, &[(5, 5)], |_| true),
        )
        .unwrap();
        let mut bad = encode_snapshot(9, 1, &[(9, 9)], |_| true);
        bad[10] ^= 0xFF;
        fs.write_all(&snap_name(0, 9), &bad).unwrap();
        fs.write_all(
            &snap_name(0, 7),
            &encode_snapshot(7, 1, &[(7, 7)], |_| true),
        )
        .unwrap();
        fs.write_all(&snap_tmp_name(0), b"half").unwrap();
        fs.write_all(&wal_tmp_name(0), b"half").unwrap();
    }

    #[test]
    fn duplicate_snapshots_pick_newest_valid_and_delete_stale() {
        let fs = MemFs::new();
        stale_snapshots_layout(&fs);
        let rec = recover_shard(&fs, 0).unwrap();
        assert_eq!(rec.snap_seq, 7);
        assert_eq!(rec.pairs, vec![(7, 7)]);
        assert!(rec.repaired);
        // Stale, invalid, seq-0 and temp files are all gone.
        let mut expect = vec![META_NAME.to_string(), snap_name(0, 7), wal_name(0)];
        expect.sort();
        assert_eq!(fs.list().unwrap(), expect);
    }

    /// A [`MemFs`] that logs the name of every file read.
    struct ReadLog {
        fs: MemFs,
        reads: std::sync::Mutex<Vec<String>>,
    }

    impl Fs for ReadLog {
        fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
            self.fs.append(name, data)
        }
        fn write_all(&self, name: &str, data: &[u8]) -> io::Result<()> {
            self.fs.write_all(name, data)
        }
        fn read(&self, name: &str) -> io::Result<Vec<u8>> {
            use isi_core::sync::MutexExt;
            self.reads.plock("read log").push(name.to_string());
            self.fs.read(name)
        }
        fn sync(&self, name: &str) -> io::Result<()> {
            self.fs.sync(name)
        }
        fn rename(&self, from: &str, to: &str) -> io::Result<()> {
            self.fs.rename(from, to)
        }
        fn remove(&self, name: &str) -> io::Result<()> {
            self.fs.remove(name)
        }
        fn list(&self) -> io::Result<Vec<String>> {
            self.fs.list()
        }
        fn sync_dir(&self) -> io::Result<()> {
            self.fs.sync_dir()
        }
    }

    #[test]
    fn recovery_reads_snapshots_newest_first_and_stops_at_the_first_valid() {
        let fs = MemFs::new();
        stale_snapshots_layout(&fs);
        let log = ReadLog {
            fs,
            reads: std::sync::Mutex::new(Vec::new()),
        };
        let rec = recover_shard(&log, 0).unwrap();
        assert_eq!(rec.snap_seq, 7);
        // The corrupt seq 9, then the valid seq 7; seq 5 and seq 0 are
        // deleted unread. Then the WAL.
        let reads = log.reads.into_inner().unwrap();
        assert_eq!(reads, [snap_name(0, 9), snap_name(0, 7), wal_name(0)]);
    }

    #[test]
    fn mis_stamped_snapshot_is_treated_as_invalid() {
        let fs = MemFs::new();
        init(&fs, &[vec![(1, 1)]]).unwrap();
        // A file named seq 9 whose payload says seq 3: invalid.
        fs.write_all(
            &snap_name(0, 9),
            &encode_snapshot(3, 1, &[(9, 9)], |_| true),
        )
        .unwrap();
        let rec = recover_shard(&fs, 0).unwrap();
        assert_eq!(rec.snap_seq, 0);
        assert_eq!(rec.pairs, vec![(1, 1)]);
        assert!(rec.repaired);
    }

    #[test]
    fn torn_wal_tail_is_discarded_and_truncated_on_disk() {
        let fs = MemFs::new();
        init(&fs, &[vec![]]).unwrap();
        let good = encode_record(1, &[(1, Some(1))]);
        fs.append(&wal_name(0), &good).unwrap();
        let torn = encode_record(2, &[(2, Some(2))]);
        fs.append(&wal_name(0), &torn[..torn.len() - 5]).unwrap();
        let rec = recover_shard(&fs, 0).unwrap();
        assert!(rec.repaired);
        assert_eq!(rec.tail.len(), 1);
        assert_eq!(rec.next_seq, 1);
        // The file itself was cut back to the valid prefix.
        assert_eq!(fs.read(&wal_name(0)).unwrap(), good);
        let again = recover_shard(&fs, 0).unwrap();
        assert!(!again.repaired);
    }

    #[test]
    fn missing_snapshot_and_missing_wal_recover_to_empty() {
        let fs = MemFs::new();
        // No init at all (crash before the init dir-sync): recovery
        // sees an empty shard rather than failing.
        let rec = recover_shard(&fs, 3).unwrap();
        assert_eq!(rec.snap_seq, 0);
        assert!(rec.pairs.is_empty() && rec.tail.is_empty());
        assert_eq!(rec.next_seq, 0);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn on_disk_format_is_pinned() {
        // Bytes these encoders wrote when the format was pinned (and
        // that zlib's `crc32` agrees with): a checksum or encoder
        // rewrite must not change one of them, or stores written
        // before it become unreadable.
        let record = encode_record(
            0x0102_0304_0506_0708,
            &[
                (1, Some(2)),
                (u64::MAX, None),
                (0xDEAD_BEEF, Some(u64::MAX)),
            ],
        );
        assert_eq!(
            hex(&record),
            "43000000fbf673210807060504030201030000000100000000000000010200000000000000\
             ffffffffffffffff000000000000000000efbeadde0000000001ffffffffffffffff"
        );
        let fs = MemFs::new();
        let pairs = [(1, 10), (2, 20), (0x8000_0000_0000_0001, 7)];
        let tmp = write_snapshot_tmp(&fs, 3, 9, &pairs).unwrap();
        assert_eq!(
            hex(&fs.read(&tmp).unwrap()),
            "49534e50010000000900000000000000030000000000000001000000000000000a000000\
             000000000200000000000000140000000000000001000000000000800700000000000000\
             a337e507"
        );
        let tmp = write_snapshot_tmp(&fs, 0, 0, &[]).unwrap();
        assert_eq!(
            hex(&fs.read(&tmp).unwrap()),
            "49534e50010000000000000000000000000000000000000051f4f67f"
        );
        assert_eq!(hex(&encode_meta(4)), "494d5441010000000400000059b91df1");
    }
}
