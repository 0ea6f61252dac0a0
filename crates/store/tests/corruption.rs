//! Fault-injection coverage for the crash-safety contract: truncate and
//! corrupt the log at **every byte offset of the last record**, in a
//! version 1 and a version 2 log, and assert clean recovery — no panic,
//! the prefix records stay intact and bit-identical, and the
//! corrupt-record counter reports exactly what was lost.

use mtk_store::{fnv1a, word_hash, Store, StoreStats, STORE_VERSION};
use std::path::PathBuf;

/// A unique scratch path under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mtk_store_fault_{}_{}_{name}.log",
        std::process::id(),
        n
    ))
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let mut lock = self.0.clone().into_os_string();
        lock.push(".lock");
        let _ = std::fs::remove_file(PathBuf::from(lock));
    }
}

/// The log versions the sweeps run on: the first, whose records carry
/// FNV-1a, and the current one.
const VERSIONS: [u32; 2] = [1, STORE_VERSION];

/// Builds a store of format `version` with `n` records of varied sizes
/// and returns the raw log image plus the byte offset where the last
/// record starts. A log of an older version starts as its header.
fn build_log(path: &PathBuf, n: usize, version: u32) -> (Vec<u8>, u64) {
    if version != STORE_VERSION {
        let mut header = b"MTKSTORE".to_vec();
        header.extend_from_slice(&version.to_le_bytes());
        std::fs::write(path, header).unwrap();
    }
    let store = Store::open(path).unwrap();
    let mut last_start = 0u64;
    for i in 0..n {
        last_start = store.stats().log_bytes;
        // Varied key/value lengths so offsets exercise every field.
        let key = format!("key-{i:04}").into_bytes();
        let value: Vec<u8> = (0..(7 + 13 * i)).map(|j| (i * 31 + j) as u8).collect();
        store.put(&key, &value).unwrap();
    }
    drop(store);
    let bytes = std::fs::read(path).unwrap();
    assert_eq!(bytes[8..12], version.to_le_bytes(), "the log's version");
    (bytes, last_start)
}

/// Asserts that a store opened from `path` serves exactly the first
/// `n_expected` records written by `build_log`, bit-identically.
fn assert_prefix_intact(path: &PathBuf, n_expected: usize) -> StoreStats {
    let store = Store::open(path).unwrap();
    assert_eq!(store.len(), n_expected, "live record count");
    for i in 0..n_expected {
        let key = format!("key-{i:04}").into_bytes();
        let want: Vec<u8> = (0..(7 + 13 * i)).map(|j| (i * 31 + j) as u8).collect();
        assert_eq!(
            store.get(&key).as_deref(),
            Some(want.as_slice()),
            "record {i} must replay bit-identically"
        );
    }
    store.stats()
}

#[test]
fn truncation_at_every_byte_offset_of_the_last_record_recovers() {
    for version in VERSIONS {
        truncation_sweep(version);
    }
}

fn truncation_sweep(version: u32) {
    let path = scratch("truncate");
    let _c = Cleanup(path.clone());
    const N: usize = 5;
    let (full, last_start) = build_log(&path, N, version);

    // Cut the file to every length from "last record entirely gone" up
    // to "one byte short of complete".
    for cut in last_start..full.len() as u64 {
        std::fs::write(&path, &full[..cut as usize]).unwrap();
        let stats = assert_prefix_intact(&path, N - 1);
        let expected_corrupt = usize::from(cut != last_start);
        assert_eq!(
            stats.corrupt_records, expected_corrupt,
            "v{version} cut at {cut}: truncation strictly inside the last \
             record counts one corrupt record; a clean boundary counts none"
        );
        assert_eq!(stats.log_bytes, last_start, "valid prefix length");
    }

    // The untouched file serves all N records with nothing corrupt.
    std::fs::write(&path, &full).unwrap();
    let stats = assert_prefix_intact(&path, N);
    assert_eq!(stats.corrupt_records, 0);
}

#[test]
fn bitflip_at_every_byte_offset_of_the_last_record_recovers() {
    for version in VERSIONS {
        bitflip_sweep(version);
    }
}

fn bitflip_sweep(version: u32) {
    let path = scratch("bitflip");
    let _c = Cleanup(path.clone());
    const N: usize = 5;
    let (full, last_start) = build_log(&path, N, version);

    for off in last_start..full.len() as u64 {
        let mut image = full.clone();
        image[off as usize] ^= 0xA5;
        std::fs::write(&path, &image).unwrap();
        let store = Store::open(&path).unwrap();
        let stats = store.stats();
        // A flipped byte inside the last record either invalidates that
        // record (checksum/length mismatch → exactly one corrupt record,
        // prefix intact) or — only when it lands inside the *value* or
        // *key* bytes — produces a record that still fails its checksum,
        // because the checksum covers the whole body. The length prefix
        // or checksum field flips likewise fail validation. In every
        // case: no panic, first N-1 records intact, exactly one corrupt
        // record, and the last key either absent or absent-as-corrupt.
        drop(store);
        let stats2 = assert_prefix_intact(&path, N - 1);
        assert_eq!(stats, stats2, "stats stable across reopen");
        assert_eq!(
            stats.corrupt_records, 1,
            "v{version} bitflip at {off} must count exactly one corrupt record"
        );
        assert_eq!(stats.log_bytes, last_start, "valid prefix length");
    }
}

/// Two flips of bit 63 in two different words of a body must fail the
/// version 2 checksum. Under a multiply-only step, `h = (h ^ w)·K` with
/// `K` odd, such a pair cancels for any body: a flip of bit 63 goes
/// through the product as a flip of bit 63 alone, and the next flip
/// undoes it. The xor-shift spreads it into bit 31 first.
#[test]
fn two_bit_63_flips_in_different_body_words_are_rejected() {
    let path = scratch("bit63");
    let _c = Cleanup(path.clone());
    const N: usize = 5;
    let (full, last_start) = build_log(&path, N, STORE_VERSION);
    let body = last_start as usize + 4;
    let words = (full.len() - 8 - body) / 8;
    assert!(words >= 4, "a body of several whole words");
    for i in 0..words {
        for j in i + 1..words {
            let mut image = full.clone();
            // Bit 63 of a little-endian word is the top bit of its last byte.
            image[body + 8 * i + 7] ^= 0x80;
            image[body + 8 * j + 7] ^= 0x80;
            std::fs::write(&path, &image).unwrap();
            let stats = assert_prefix_intact(&path, N - 1);
            assert_eq!(stats.corrupt_records, 1, "words {i} and {j}");
        }
    }
}

#[test]
fn garbage_appended_after_valid_log_is_contained() {
    let path = scratch("garbage_tail");
    let _c = Cleanup(path.clone());
    const N: usize = 3;
    let (full, _) = build_log(&path, N, STORE_VERSION);
    for tail in [&[0xFFu8][..], &[0u8; 3], &[0x42; 17]] {
        let mut image = full.clone();
        image.extend_from_slice(tail);
        std::fs::write(&path, &image).unwrap();
        let stats = assert_prefix_intact(&path, N);
        assert_eq!(
            stats.corrupt_records, 1,
            "garbage tail is one corrupt record"
        );
        assert_eq!(stats.log_bytes, full.len() as u64);
    }
}

#[test]
fn put_after_torn_tail_truncates_and_heals() {
    let path = scratch("heal");
    let _c = Cleanup(path.clone());
    const N: usize = 4;
    let (full, last_start) = build_log(&path, N, STORE_VERSION);
    // Tear the last record in half.
    let cut = last_start + (full.len() as u64 - last_start) / 2;
    std::fs::write(&path, &full[..cut as usize]).unwrap();

    let store = Store::open(&path).unwrap();
    assert_eq!(store.stats().corrupt_records, 1);
    // Writing a new record truncates the torn tail and appends cleanly.
    store.put(b"healed", b"payload").unwrap();
    drop(store);

    let again = Store::open(&path).unwrap();
    assert_eq!(again.len(), N - 1 + 1);
    assert_eq!(again.get(b"healed").as_deref(), Some(&b"payload"[..]));
    assert_eq!(
        again.stats().corrupt_records,
        0,
        "healed log must scan clean"
    );
    assert!(again.verify().unwrap().corrupt_records == 0);
}

#[test]
fn version_constant_and_checksum_are_pinned() {
    // The on-disk format is a compatibility contract: pin the version
    // and both checksum primitives so accidental changes fail loudly.
    assert_eq!(STORE_VERSION, 2);
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    // word_hash: one step `h = (h ^ w)·K; h ^= h >> 32` per word, the
    // tail zero-padded, then one step over the length.
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64, w: u64| {
        let h = (h ^ w).wrapping_mul(K);
        h ^ (h >> 32)
    };
    assert_eq!(word_hash(0, b""), 0);
    assert_eq!(word_hash(0, b"a"), step(step(0, 0x61), 1));
    assert_eq!(word_hash(0, b"a"), 0xffde_1b41_63a5_fcc0);
    assert_eq!(word_hash(0, b"01234567"), 0x4a48_0984_16dd_377d);
    assert_eq!(word_hash(7, b"0123456789abcdefg"), 0xbe65_3f23_ecd6_7a21);
    // A version 2 record's checksum is word_hash of its body from the
    // FNV offset basis.
    let path = scratch("pinned");
    let _c = Cleanup(path.clone());
    Store::open(&path).unwrap().put(b"key", b"value").unwrap();
    let log = std::fs::read(&path).unwrap();
    let (body, sum) = log[16..].split_at(log.len() - 16 - 8);
    assert_eq!(body, b"\x03\0\0\0keyvalue");
    assert_eq!(sum, word_hash(0xcbf2_9ce4_8422_2325, body).to_le_bytes());
    assert_eq!(sum, 0x8967_0655_0177_76ec_u64.to_le_bytes());
}
