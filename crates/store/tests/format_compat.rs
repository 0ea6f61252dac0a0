//! The on-disk format does not move with the in-memory layout.
//! `data/store_v1.log` was written by the store as of commit d6f4ddf,
//! which still mirrored every record in memory, by these puts in order:
//! the four records of [`records`], with a conflicting second put of the
//! first key (rejected, never written) before the last. It must open and
//! serve unchanged, and the same puts must write it byte for byte.

use mtk_store::{Store, StoreStats};
use std::path::PathBuf;

fn fixture() -> Vec<u8> {
    std::fs::read(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/store_v1.log"))
        .expect("read fixture")
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

#[test]
fn the_same_puts_write_the_same_bytes() {
    let path = scratch("write");
    let _c = Cleanup(path.clone());
    let store = Store::open(&path).unwrap();
    let records = records();
    for (i, (key, value)) in records.iter().enumerate() {
        if i == records.len() - 1 {
            store.put(&records[0].0, b"other").unwrap();
        }
        store.put(key, value).unwrap();
    }
    assert_eq!(store.stats().conflicting_records, 1);
    drop(store);
    assert!(std::fs::read(&path).unwrap() == fixture());
}
