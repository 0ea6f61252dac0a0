//! The on-disk format does not move with the in-memory layout.
//! `data/store_v1.log` was written by the store as of commit d6f4ddf,
//! which still mirrored every record in memory, by these puts in order:
//! the four records of [`records`], with a conflicting second put of the
//! first key (rejected, never written) before the last. It must open and
//! serve unchanged, and the same puts into a version 1 log must write it
//! byte for byte. `data/store_v2.log` is what the same puts write into a
//! new log, in format version 2, and what compacting the version 1 log
//! writes.

use mtk_store::{Store, StoreStats};
use std::path::PathBuf;

fn read_fixture(name: &str) -> Vec<u8> {
    std::fs::read(
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/data")
            .join(name),
    )
    .expect("read fixture")
}

fn fixture() -> Vec<u8> {
    read_fixture("store_v1.log")
}

fn fixture_v2() -> Vec<u8> {
    read_fixture("store_v2.log")
}

fn records() -> Vec<(Vec<u8>, Vec<u8>)> {
    vec![
        (b"serve/req2:alpha".to_vec(), br#"{"result":1}"#.to_vec()),
        (vec![b'l', b'e', b'g', 0, 1, 0xff], (0..=255u8).collect()),
        (b"empty".to_vec(), Vec::new()),
        (
            b"big".to_vec(),
            (0..3000u32).map(|i| (i * 7 % 251) as u8).collect(),
        ),
    ]
}

/// A unique scratch path under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mtk_store_compat_{}_{name}.log",
        std::process::id()
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

#[test]
fn a_log_from_the_mirroring_store_opens_and_serves_unchanged() {
    let path = scratch("open");
    let _c = Cleanup(path.clone());
    let image = fixture();
    std::fs::write(&path, &image).unwrap();
    let store = Store::open(&path).unwrap();
    assert_eq!(
        store.stats(),
        StoreStats {
            live_records: 4,
            dead_records: 0,
            conflicting_records: 0,
            corrupt_records: 0,
            log_bytes: image.len() as u64,
        }
    );
    for (key, value) in records() {
        assert_eq!(store.get(&key).as_deref(), Some(value.as_slice()));
    }
    // Appending to it keeps every old record and the old bytes.
    store.put(b"new", b"appended").unwrap();
    drop(store);
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes[..image.len()], image[..]);
    let again = Store::open(&path).unwrap();
    assert_eq!(again.len(), 5);
    assert_eq!(again.get(b"new").as_deref(), Some(&b"appended"[..]));
    assert_eq!(again.verify().unwrap(), again.stats());
}

/// The fixtures' puts through `store`.
fn put_records(store: &Store) {
    let records = records();
    for (i, (key, value)) in records.iter().enumerate() {
        if i == records.len() - 1 {
            store.put(&records[0].0, b"other").unwrap();
        }
        store.put(key, value).unwrap();
    }
    assert_eq!(store.stats().conflicting_records, 1);
}

#[test]
fn the_same_puts_write_the_same_bytes() {
    let path = scratch("write");
    let _c = Cleanup(path.clone());
    // A version 1 log holding only its header takes appends in its form.
    std::fs::write(&path, &fixture()[..12]).unwrap();
    put_records(&Store::open(&path).unwrap());
    assert!(std::fs::read(&path).unwrap() == fixture());
}

#[test]
fn a_new_log_is_written_in_version_2() {
    let path = scratch("write_v2");
    let _c = Cleanup(path.clone());
    put_records(&Store::open(&path).unwrap());
    let image = fixture_v2();
    assert!(std::fs::read(&path).unwrap() == image);
    // It opens and serves like the version 1 fixture does.
    let store = Store::open(&path).unwrap();
    assert_eq!(store.len(), 4);
    assert_eq!(store.verify().unwrap().log_bytes, image.len() as u64);
    for (key, value) in records() {
        assert_eq!(store.get(&key).as_deref(), Some(value.as_slice()));
    }
}

#[test]
fn compacting_a_version_1_log_writes_version_2() {
    let path = scratch("compact_v1");
    let _c = Cleanup(path.clone());
    std::fs::write(&path, fixture()).unwrap();
    let store = Store::open(&path).unwrap();
    let stats = store.compact().unwrap();
    assert_eq!((stats.live_records, stats.corrupt_records), (4, 0));
    assert!(std::fs::read(&path).unwrap() == fixture_v2());
    for (key, value) in records() {
        assert_eq!(store.get(&key).as_deref(), Some(value.as_slice()));
    }
    // An append after the compaction is a version 2 record: one in
    // version 1 form would fail the version 2 checksum and read as corrupt.
    store.put(b"new", b"appended").unwrap();
    drop(store);
    let again = Store::open(&path).unwrap();
    assert_eq!(again.get(b"new").as_deref(), Some(&b"appended"[..]));
    assert_eq!(again.verify().unwrap(), again.stats());
}
