//! Byte-level fuzz of the WAL and snapshot decoders. Recovery feeds
//! them whatever a crash left on disk, so they must never panic, and
//! whatever they accept must be exactly what was written:
//!
//! * arbitrary bytes — raw, behind a snapshot header, or framed under
//!   a valid record CRC so the checks past the checksum see them —
//!   never panic either decoder, and a WAL decode accounts for
//!   exactly the bytes it accepted;
//! * a stream of encoded records, cut at any offset or with any one
//!   bit flipped, decodes to a prefix of those records whose encoded
//!   length is `valid_len`;
//! * a snapshot round-trips, and every strict truncation or single-bit
//!   flip of it decodes to `None`;
//! * a snapshot encoded out of a routed input, as a store's build
//!   writes one, is byte for byte the snapshot format spelled out here
//!   over the same pairs collected into a slice, and so is each shard
//!   `init_store` writes through its one reused buffer.

use proptest::prelude::*;

use isi_durable::crc32;
use isi_durable::wal::{
    decode_snapshot, decode_wal, encode_record, encode_snapshot, init_store, WalRecord,
};
use isi_durable::{Fs, MemFs};

/// A WAL record body (`seq`, `count`, entries) framed with its length
/// prefix and a valid CRC, as `encode_record` frames one.
fn frame(body: &[u8]) -> Vec<u8> {
    let len = u32::try_from(4 + body.len()).expect("small body");
    let mut covered = len.to_le_bytes().to_vec();
    covered.extend_from_slice(body);
    let mut out = len.to_le_bytes().to_vec();
    out.extend_from_slice(&crc32(&covered).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// The snapshot format, written out: magic, version 1, `seq`, the pair
/// count, the pairs little-endian, then the CRC of all of it.
fn snapshot_bytes(seq: u64, pairs: &[(u64, u64)]) -> Vec<u8> {
    let mut out = [b"ISNP".as_slice(), &1u32.to_le_bytes(), &seq.to_le_bytes()].concat();
    out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
    for &(k, v) in pairs {
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The fuzz input of kind `kind` (0..4) built from `junk`.
fn fuzz_input(kind: u8, junk: &[u8]) -> Vec<u8> {
    match kind {
        // Raw bytes.
        0 => junk.to_vec(),
        // A snapshot header (magic, version 1) over junk.
        1 => [b"ISNP".as_slice(), &1u32.to_le_bytes(), junk].concat(),
        // Junk under a valid CRC with a small `count` that seldom
        // agrees with the length, either way.
        2 => {
            let mut body = junk.to_vec();
            body.resize(body.len().max(12), 0);
            let count = u32::from(body[0] % 16);
            body[8..12].copy_from_slice(&count.to_le_bytes());
            frame(&body)
        }
        // A consistent count under a valid CRC: the entries are junk
        // with presence bytes 0, 1 or 2 (2 is corrupt).
        _ => {
            let entries: Vec<&[u8]> = junk.chunks_exact(17).collect();
            let mut body = (junk.len() as u64).to_le_bytes().to_vec();
            body.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for e in entries {
                body.extend_from_slice(&e[..8]);
                body.push(e[8] % 3);
                body.extend_from_slice(&e[9..]);
            }
            frame(&body)
        }
    }
}

/// Records of 0–5 operations each; a third of the operations are
/// tombstones.
fn records() -> impl Strategy<Value = Vec<WalRecord>> {
    let op =
        (0..=u64::MAX, 0u8..3, 0..=u64::MAX).prop_map(|(k, tag, v)| (k, (tag != 0).then_some(v)));
    let record = (0..=u64::MAX, proptest::collection::vec(op, 0..6))
        .prop_map(|(seq, ops)| WalRecord { seq, ops });
    proptest::collection::vec(record, 1..21)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(
        kind in 0u8..4,
        junk in proptest::collection::vec(0u8..=255, 0..300),
    ) {
        let bytes = fuzz_input(kind, &junk);
        let dec = decode_wal(&bytes);
        prop_assert!(dec.valid_len <= bytes.len());
        prop_assert_eq!(dec.clean, dec.valid_len == bytes.len());
        let accepted: usize = dec.records.iter().map(|r| encode_record(r.seq, &r.ops).len()).sum();
        prop_assert_eq!(accepted, dec.valid_len, "kind {}", kind);
        if let Some((seq, pairs)) = decode_snapshot(&bytes) {
            prop_assert_eq!(encode_snapshot(seq, pairs.len(), &pairs, |_| true), bytes, "kind {}", kind);
        }
    }

    #[test]
    fn a_cut_or_flipped_wal_decodes_to_a_prefix_of_its_records(
        written in records(),
        flip in 0u8..2,
        at in 0..=u64::MAX,
    ) {
        let mut bytes = Vec::new();
        // ends[i]: the stream length once records 0..=i are written.
        let mut ends = Vec::new();
        for r in &written {
            bytes.extend_from_slice(&encode_record(r.seq, &r.ops));
            ends.push(bytes.len());
        }
        let whole = bytes.len();
        // How many whole records survive the damage, and whether what
        // is left is a clean log.
        let (kept, clean) = if flip == 1 {
            let bit = (at % (whole as u64 * 8)) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
            // The CRC catches any single-bit flip in the record it hits.
            (ends.iter().take_while(|&&end| end <= bit / 8).count(), false)
        } else {
            let cut = (at % whole as u64) as usize;
            bytes.truncate(cut);
            // A cut on a record boundary loses whole records only.
            (ends.iter().take_while(|&&end| end <= cut).count(), cut == 0 || ends.contains(&cut))
        };
        let dec = decode_wal(&bytes);
        prop_assert_eq!(&dec.records[..], &written[..kept]);
        prop_assert_eq!(dec.valid_len, if kept == 0 { 0 } else { ends[kept - 1] });
        prop_assert_eq!(dec.clean, clean);
    }

    #[test]
    fn snapshots_roundtrip_and_reject_any_truncation_or_bit_flip(
        seq in 0..=u64::MAX,
        pairs in proptest::collection::btree_map(0..=u64::MAX, 0..=u64::MAX, 0..40),
        at in 0..=u64::MAX,
    ) {
        let pairs: Vec<(u64, u64)> = pairs.into_iter().collect();
        let bytes = encode_snapshot(seq, pairs.len(), &pairs, |_| true);
        prop_assert_eq!(decode_snapshot(&bytes), Some((seq, pairs)));
        for cut in 0..bytes.len() {
            prop_assert_eq!(decode_snapshot(&bytes[..cut]), None, "cut {}", cut);
        }
        let bit = (at % (bytes.len() as u64 * 8)) as usize;
        let mut flipped = bytes;
        flipped[bit / 8] ^= 1 << (bit % 8);
        prop_assert_eq!(decode_snapshot(&flipped), None, "bit {}", bit);
    }

    #[test]
    fn a_streamed_snapshot_is_the_slice_format(
        seq in 0..=u64::MAX,
        pairs in proptest::collection::btree_map(0..=u64::MAX, 0..=u64::MAX, 0..80),
        route in 0..=u64::MAX,
    ) {
        // Two shards picked by a key bit, as a store's routing splits
        // its input: each shard's snapshot is encoded from the whole
        // input, keeping the pairs routed to it. `init_store` encodes
        // both into one buffer, the second over the first's bytes.
        let input: Vec<(u64, u64)> = pairs.into_iter().collect();
        let shard_of = |k: u64| (((k ^ route) >> (route % 64)) & 1) as usize;
        let slices: Vec<Vec<(u64, u64)>> = (0..2)
            .map(|shard| input.iter().copied().filter(|&(k, _)| shard_of(k) == shard).collect())
            .collect();
        let fs = MemFs::new();
        let lens: Vec<usize> = slices.iter().map(Vec::len).collect();
        init_store(&fs, &lens, &input, shard_of).expect("init on a MemFs");
        for (shard, slice) in slices.iter().enumerate() {
            prop_assert_eq!(
                encode_snapshot(seq, slice.len(), &input, |k| shard_of(k) == shard),
                snapshot_bytes(seq, slice),
                "shard {}",
                shard
            );
            let seq0 = fs.read(&format!("shard-{shard:04}.snap.{:020}", 0)).expect("seq-0 snapshot");
            prop_assert_eq!(seq0, snapshot_bytes(0, slice), "init, shard {}", shard);
        }
    }
}
