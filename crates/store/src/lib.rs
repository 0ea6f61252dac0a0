//! A crash-safe, content-addressed, on-disk result store.
//!
//! The sizing pipeline's `ScreeningCache` makes warm reruns free *within*
//! one process; this crate makes them free *across* processes and CI
//! runs, and gives `mtk serve` a durable result tier. The design goal is
//! robustness first: a process crash, a torn write, or a corrupted tail
//! must never panic a reader, never serve bad bits, and lose at most the
//! record that was being written.
//!
//! # On-disk format
//!
//! One append-only log file:
//!
//! ```text
//! header:  "MTKSTORE" (8 bytes) | u32 LE version
//! record:  u32 LE body_len | body | u64 LE checksum(body)
//! body:    u32 LE key_len | key bytes | value bytes
//! ```
//!
//! The checksum is the version's: [`word_hash`] of the body from a fixed
//! seed in a version 2 log ([`STORE_VERSION`]), [`fnv1a`] of the body in
//! a version 1 log. Each log keeps the version its header names. A
//! version 1 log opens, serves and takes appends in version 1 form; a
//! new log and the output of [`Store::compact`] are version 2. Any other
//! version is refused.
//!
//! Records are content-addressed: the key is caller-chosen bytes
//! (typically a fingerprint tuple) and the value is an opaque payload.
//! The log is never updated in place — `put` only appends, and
//! [`Store::compact`] rewrites the whole file atomically (temp file +
//! rename).
//!
//! # Crash-safety contract
//!
//! * **Torn tails are truncated, not trusted.** Loading scans records
//!   front to back; the first record whose length prefix, body bytes, or
//!   checksum is invalid ends the valid prefix. Everything before it is
//!   served; everything from it on is counted as **one** corrupt record
//!   ([`StoreStats::corrupt_records`]) and physically truncated by the
//!   next write. No scan path panics.
//! * **Duplicate keys never shadow silently.** A later record whose key
//!   already exists with a *different* payload is a conflict: the first
//!   writer wins and [`StoreStats::conflicting_records`] is incremented
//!   (the append-only analogue of the `Triplets` duplicate-merge bug —
//!   see DESIGN.md §13). A later record with an *identical* payload is
//!   merely dead weight and counts in [`StoreStats::dead_records`].
//! * **One writer at a time, readers lock-free.** An exclusive OS
//!   advisory lock (`flock(2)` via [`std::fs::File::try_lock`]) on a
//!   sibling `.lock` file serializes writers across processes *and*
//!   across handles within one process — two `Store`s on one path
//!   contend exactly like two processes do.
//!   The kernel releases the lock when the holder's descriptor closes,
//!   crash included, so locks cannot go stale and never need to be
//!   broken. Readers never touch the lock file — they only ever see the
//!   log's valid prefix, which appends cannot invalidate.
//! * **A replaced log is rescanned, not appended to blindly.** A handle
//!   remembers the identity (`dev`, `ino`) of the file it read and holds
//!   that file open, so the inode number cannot be reused. Under the
//!   lock, a changed identity or a shorter file means another handle
//!   compacted the log: the handle rescans it from the start before
//!   appending.
//!
//! # Memory
//!
//! A handle keeps a key directory in memory (after Bitcask: Sheehy &
//! Smith, 2010): an index from each live key's hash to the offset and
//! length of the key's first record. The hash is [`word_hash`] under a
//! seed drawn once per handle from a [`RandomState`], so the index
//! differs per handle; the index uses that hash as its own. Live keys
//! whose hashes collide go to a small spill map.
//!
//! Record bytes are resident only as far as the last full read loaded
//! them: the image that [`Store::open`], a rescan after another handle's
//! compaction, or [`Store::compact`] read. Every record indexed after
//! that, whether this handle's own [`Store::put`] appended it or a
//! resync adopted it from another writer, stays on disk. A lookup of
//! such a record reads it back with one positioned read on the held log
//! file and re-checks its length, checksum and key; a short read, an
//! I/O error or a mismatch is a miss, never a panic and never bad
//! bytes. A long-running writer thus grows by one index slot per record,
//! not by the record. The open-time image stays resident because warm
//! reruns read it: a get from memory costs a hash probe and a copy,
//! where a positioned read costs a system call.
//!
//! Dead and conflicting records in the image stay there, unindexed,
//! until [`Store::compact`] drops them. Open one handle per log per
//! process: two handles each hold an image.
//!
//! # Maintenance
//!
//! [`Store::verify`] re-scans the file from disk and reports what a
//! fresh open would find. [`Store::compact`] rewrites the log with only
//! live records (dropping dead, conflicting, and corrupt bytes),
//! atomically.

#![warn(missing_docs)]

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::{File, OpenOptions, TryLockError};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Version number a new log's header carries. Bump on any change to the
/// record layout; [`Store::open`] reads this version and version 1, and
/// refuses any other rather than guessing.
pub const STORE_VERSION: u32 = 2;

/// The first version, whose records carry an [`fnv1a`] checksum.
const FNV_VERSION: u32 = 1;

/// Magic bytes opening every store file.
const MAGIC: &[u8; 8] = b"MTKSTORE";

/// Header length: magic + version.
const HEADER_LEN: u64 = 12;

/// Upper bound on one record body, a plausibility guard so a corrupt
/// length prefix cannot drive a multi-gigabyte allocation.
const MAX_BODY_BYTES: u32 = 64 * 1024 * 1024;

/// How long [`Store::put`] waits for the writer lock before giving up.
const LOCK_TIMEOUT: Duration = Duration::from_secs(10);

/// FNV-1a over a byte slice — the checksum of a version 1 log (the same
/// hash family the netlist/technology fingerprints use).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The odd multiplier of [`word_hash`]'s step (2⁶⁴ / φ).
const WORD_K: u64 = 0x9e37_79b9_7f4a_7c15;

/// One step of [`word_hash`]: `h = (h ^ word)·K`, then `h ^= h >> 32`.
/// Both halves are bijections of the state.
#[inline]
fn word_step(h: u64, word: u64) -> u64 {
    let h = (h ^ word).wrapping_mul(WORD_K);
    h ^ (h >> 32)
}

/// A word-at-a-time hash of `bytes` from `seed`: one step `h = (h ^
/// word)·K`, `h ^= h >> 32` per little-endian 8-byte word, the tail
/// zero-padded to a word, and a last step over the length. It is the checksum of a version 2 log (from a
/// fixed seed), the key directory's hash (from a per-handle seed), and,
/// through [`WordState`], the hash of byte-keyed maps.
///
/// Every step is a bijection of the state, so two inputs of one length
/// that differ inside a single word always hash apart. The xor-shift
/// also spreads a flip of bit 63 into bit 31, so a second flip of bit
/// 63 in the next word does not cancel it, as it would under a
/// multiply-only step. The step is not a keyed hash: bit 63 goes
/// through the multiply unmixed, so flipping bit 63 of one word and bits
/// 63 and 31 of the next gives the same hash under every seed. The key
/// directory stays exact under such collisions (it compares full keys),
/// and a checksum misses that one three-bit pattern.
pub fn word_hash(seed: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut h = seed;
    for word in &mut words {
        h = word_step(h, u64::from_le_bytes(word.try_into().unwrap()));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        h = word_step(h, u64::from_le_bytes(padded));
    }
    word_step(h, bytes.len() as u64)
}

/// A [`BuildHasher`] of [`WordHasher`]s, seeded once from a
/// [`RandomState`]: [`word_hash`] for maps keyed by byte strings.
#[derive(Debug, Clone)]
pub struct WordState {
    seed: u64,
}

impl Default for WordState {
    fn default() -> Self {
        WordState {
            seed: RandomState::new().hash_one(WORD_K),
        }
    }
}

impl BuildHasher for WordState {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher(self.seed)
    }
}

/// The [`Hasher`] of [`WordState`]: a byte write is one [`word_hash`]
/// from the running state, and an integer write one step.
#[derive(Debug, Clone)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = word_hash(self.0, bytes);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = word_step(self.0, n);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The seed of a version 2 checksum: fixed, and nonzero so that leading
/// zero words move the state.
const CHECKSUM_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The checksum of a record body in a log of `version`.
fn checksum(version: u32, body: &[u8]) -> u64 {
    if version == FNV_VERSION {
        fnv1a(body)
    } else {
        word_hash(CHECKSUM_SEED, body)
    }
}

/// Everything that can go wrong opening or writing a store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// The file exists but does not start with the store magic — it is
    /// not a store log, so it is refused rather than truncated.
    NotAStore {
        /// The offending path.
        path: PathBuf,
    },
    /// The file is a store log written by an incompatible version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
    },
    /// The writer lock could not be acquired within the timeout.
    LockTimeout {
        /// The lock file path.
        path: PathBuf,
    },
    /// A record exceeds the plausibility bound and cannot be written.
    RecordTooLarge {
        /// Size of the offending record body.
        bytes: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::NotAStore { path } => {
                write!(f, "{} is not an mtk-store log (bad magic)", path.display())
            }
            StoreError::VersionMismatch { found } => write!(
                f,
                "store version {found} is not one this build reads ({FNV_VERSION} or {STORE_VERSION})"
            ),
            StoreError::LockTimeout { path } => {
                write!(f, "timed out waiting for writer lock {}", path.display())
            }
            StoreError::RecordTooLarge { bytes } => {
                write!(f, "record body of {bytes} bytes exceeds {MAX_BODY_BYTES}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Health counters of a store: what a scan found and what maintenance
/// would reclaim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct keys currently served.
    pub live_records: usize,
    /// Redundant records (duplicate key, identical payload).
    pub dead_records: usize,
    /// Duplicate-key records with a *different* payload that were
    /// rejected (first writer wins).
    pub conflicting_records: usize,
    /// Torn or corrupt tails detected and excluded (at most one per
    /// recovery — the log cannot be resynchronized past the first bad
    /// byte).
    pub corrupt_records: usize,
    /// Length in bytes of the valid log prefix (header included).
    pub log_bytes: u64,
}

/// Total length (length prefix, body and checksum) of the record at the
/// start of `rest` in a log of `version`, or `None` when its length
/// prefix, body bytes, checksum or key length is invalid. Never panics.
fn valid_record_len(version: u32, rest: &[u8]) -> Option<usize> {
    let body_len = u32::from_le_bytes(rest.get(0..4)?.try_into().unwrap()) as usize;
    if body_len < 4 || body_len > MAX_BODY_BYTES as usize {
        return None;
    }
    let body = rest.get(4..4 + body_len)?;
    let sum = rest.get(4 + body_len..4 + body_len + 8)?;
    if u64::from_le_bytes(sum.try_into().unwrap()) != checksum(version, body) {
        return None;
    }
    // Body: key_len | key | value.
    let key_len = u32::from_le_bytes(body[0..4].try_into().unwrap()) as usize;
    (key_len <= body_len - 4).then_some(4 + body_len + 8)
}

/// The key and value of one whole record that [`valid_record_len`]
/// accepted.
fn parts(record: &[u8]) -> (&[u8], &[u8]) {
    let key_len = u32::from_le_bytes(record[4..8].try_into().unwrap()) as usize;
    let key_end = 8 + key_len;
    (&record[8..key_end], &record[key_end..record.len() - 8])
}

/// Where a valid record lies in the log: its offset and its total
/// length (length prefix, body and checksum).
#[derive(Debug, Clone, Copy)]
struct Loc {
    off: u64,
    len: u32,
}

/// The body length of a record of `key` and `value`, or
/// [`StoreError::RecordTooLarge`].
fn body_len(key: &[u8], value: &[u8]) -> Result<usize, StoreError> {
    let body_len = 4 + key.len() + value.len();
    if body_len > MAX_BODY_BYTES as usize {
        return Err(StoreError::RecordTooLarge { bytes: body_len });
    }
    Ok(body_len)
}

/// Serializes one record (length prefix + body + checksum) for a log of
/// `version`.
fn encode_record(version: u32, key: &[u8], value: &[u8]) -> Result<Vec<u8>, StoreError> {
    let body_len = body_len(key, value)?;
    let mut out = Vec::with_capacity(4 + body_len + 8);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    let sum = checksum(version, &out[4..]);
    out.extend_from_slice(&sum.to_le_bytes());
    Ok(out)
}

/// The header bytes of a log of `version`.
fn header_bytes(version: u32) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[..8].copy_from_slice(MAGIC);
    h[8..].copy_from_slice(&version.to_le_bytes());
    h
}

/// `(device, inode)` of a log file: what tells an appended-to log from
/// one another handle replaced by renaming a compacted copy over it.
type FileId = (u64, u64);

#[cfg(unix)]
fn file_id(meta: &std::fs::Metadata) -> FileId {
    use std::os::unix::fs::MetadataExt;
    (meta.dev(), meta.ino())
}

/// Without inode numbers a replaced log is detected only when it is
/// shorter than the handle's valid prefix.
#[cfg(not(unix))]
fn file_id(_meta: &std::fs::Metadata) -> FileId {
    (0, 0)
}

/// The log file an image was read from, and its identity. The handle is
/// held open so that no later file can be given its inode number: equal
/// identities then mean the same file. It is also where records past
/// the image are read back from, so it must be readable.
struct LogFile {
    file: File,
    id: FileId,
}

impl LogFile {
    fn new(file: File) -> std::io::Result<LogFile> {
        let id = file_id(&file.metadata()?);
        Ok(LogFile { file, id })
    }

    /// The `len` bytes at `off`, in one positioned read; `None` on a
    /// short read or an I/O error.
    fn read_at(&self, off: u64, len: usize) -> Option<Vec<u8>> {
        let mut buf = vec![0; len];
        read_exact_at(&self.file, &mut buf, off).ok()?;
        Some(buf)
    }
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], off: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, off)
}

/// Without positioned reads, seek the held handle: nothing else uses
/// its cursor.
#[cfg(not(unix))]
fn read_exact_at(mut file: &File, buf: &mut [u8], off: u64) -> std::io::Result<()> {
    file.seek(SeekFrom::Start(off))?;
    file.read_exact(buf)
}

/// Reads the whole log at `path` and the file it read, through one
/// handle; a missing file is empty and there is no file.
fn read_log(path: &Path) -> Result<(Vec<u8>, Option<LogFile>), StoreError> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok((Vec::new(), None)),
        Err(e) => return Err(StoreError::Io(e)),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    Ok((bytes, Some(LogFile::new(file)?)))
}

/// Hashes keys for the index: [`word_hash`] under the handle's seed. A
/// test build can send every key to one hash, to drive the spill path.
#[derive(Clone, Default)]
struct KeyHasher {
    state: WordState,
    #[cfg(test)]
    collide_all: bool,
}

impl KeyHasher {
    fn hash(&self, key: &[u8]) -> u64 {
        #[cfg(test)]
        if self.collide_all {
            return 0;
        }
        word_hash(self.state.seed, key)
    }
}

/// The index's hasher: its keys are [`KeyHasher`] hashes already, so a
/// key is its own hash.
#[derive(Clone, Copy, Default)]
struct HashedKey(u64);

impl Hasher for HashedKey {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("the index hashes u64 keys only")
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by [`KeyHasher`] hashes.
type HashIndex<V> = HashMap<u64, V, BuildHasherDefault<HashedKey>>;

/// The log as a handle sees it: the valid prefix's length, the part of
/// it the last full read loaded, and the file the rest is read from.
struct Log {
    /// The file's valid prefix as the last full read (open, rescan,
    /// compact) loaded it, header included; records past its end stay
    /// on disk.
    image: Vec<u8>,
    /// Length of the file's valid prefix; `0` until the header exists.
    len: u64,
    /// The header's version, which sets the checksum of every record;
    /// [`STORE_VERSION`] until the header exists.
    version: u32,
    /// The file `image` was read from; `None` until it exists.
    file: Option<LogFile>,
}

impl Log {
    /// The bytes of the record at `loc`: borrowed from the image, or
    /// read back from the file and re-validated. `None` when the read
    /// fails or the bytes on disk are no longer that record.
    fn record(&self, loc: Loc) -> Option<Cow<'_, [u8]>> {
        let (off, len) = (loc.off as usize, loc.len as usize);
        if let Some(bytes) = self.image.get(off..off + len) {
            return Some(Cow::Borrowed(bytes));
        }
        let bytes = self.file.as_ref()?.read_at(loc.off, len)?;
        (valid_record_len(self.version, &bytes) == Some(len)).then_some(Cow::Owned(bytes))
    }
}

/// The key directory: hash of each live key → location of its first
/// record, and the health counters a scan of the log gives.
struct KeyDir {
    /// Hash of a live key → its first record.
    index: HashIndex<Loc>,
    /// Live keys whose hash another live key already holds in `index`:
    /// hash → their first records.
    spill: HashIndex<Vec<Loc>>,
    hasher: KeyHasher,
    /// Health counters; `log_bytes` is read off [`Log::len`] by
    /// [`Inner::stats`].
    stats: StoreStats,
}

impl KeyDir {
    /// The first record under `key`, whose hash is `h`, confirmed by
    /// comparing the full key.
    fn find<'l>(&self, log: &'l Log, key: &[u8], h: u64) -> Option<Cow<'l, [u8]>> {
        let first = self.index.get(&h)?;
        let spilled = self.spill.get(&h).into_iter().flatten();
        std::iter::once(first)
            .chain(spilled)
            .find_map(|&loc| log.record(loc).filter(|rec| parts(rec).0 == key))
    }

    /// Validates and indexes the records in `bytes`, which start at
    /// offset `base` of the log. The first invalid byte ends the valid
    /// prefix, whose end offset is returned, and counts one corrupt
    /// record.
    fn index_from(&mut self, log: &Log, base: u64, bytes: &[u8]) -> u64 {
        let mut pos = 0;
        while pos < bytes.len() {
            let Some(len) = valid_record_len(log.version, &bytes[pos..]) else {
                self.stats.corrupt_records += 1;
                break;
            };
            let loc = Loc {
                off: base + pos as u64,
                len: len as u32,
            };
            let (key, value) = parts(&bytes[pos..pos + len]);
            self.index_record(log, loc, key, value);
            pos += len;
        }
        base + pos as u64
    }

    /// Indexes the valid record at `loc`: a new key goes live, a known
    /// one is a dead record (same payload) or a conflict (first writer
    /// wins).
    fn index_record(&mut self, log: &Log, loc: Loc, key: &[u8], value: &[u8]) {
        let h = self.hasher.hash(key);
        match self.find(log, key, h).map(|first| parts(&first).1 == value) {
            Some(true) => self.stats.dead_records += 1,
            Some(false) => self.stats.conflicting_records += 1,
            None => {
                match self.index.entry(h) {
                    Entry::Vacant(slot) => {
                        slot.insert(loc);
                    }
                    Entry::Occupied(_) => self.spill.entry(h).or_default().push(loc),
                }
                self.stats.live_records += 1;
            }
        }
    }
}

/// In-memory state behind the store's mutex: the log and the key
/// directory over it.
struct Inner {
    log: Log,
    dir: KeyDir,
}

impl Inner {
    /// Scans a full file image (header + records) into a key directory
    /// over it, keeping `bytes` as the image. A torn tail is cut off the
    /// image and counted as one corrupt record; a torn header leaves an
    /// empty store. Never panics.
    fn scan(
        path: &Path,
        bytes: Vec<u8>,
        hasher: KeyHasher,
        file: Option<LogFile>,
    ) -> Result<Inner, StoreError> {
        let mut inner = Inner {
            log: Log {
                image: Vec::new(),
                len: 0,
                version: STORE_VERSION,
                file,
            },
            dir: KeyDir {
                index: HashIndex::default(),
                spill: HashIndex::default(),
                hasher,
                stats: StoreStats::default(),
            },
        };
        if bytes.is_empty() {
            // Missing or empty file: an empty store whose header is
            // written by the first put.
            return Ok(inner);
        }
        if bytes.len() < HEADER_LEN as usize {
            // A crash during initial creation tore the header itself:
            // nothing is recoverable, but nothing was stored either.
            inner.dir.stats.corrupt_records = 1;
            return Ok(inner);
        }
        if &bytes[..8] != MAGIC {
            return Err(StoreError::NotAStore {
                path: path.to_path_buf(),
            });
        }
        let found = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if found != STORE_VERSION && found != FNV_VERSION {
            return Err(StoreError::VersionMismatch { found });
        }
        inner.log.version = found;
        inner.log.image = bytes;
        let records = &inner.log.image[HEADER_LEN as usize..];
        let valid = inner.dir.index_from(&inner.log, HEADER_LEN, records);
        inner.log.image.truncate(valid as usize);
        inner.log.len = valid;
        Ok(inner)
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            log_bytes: self.log.len,
            ..self.dir.stats
        }
    }

    /// The first record ever written under `key`.
    fn find(&self, key: &[u8]) -> Option<Cow<'_, [u8]>> {
        self.dir.find(&self.log, key, self.dir.hasher.hash(key))
    }

    /// The payload of the first record ever written under `key`.
    fn value(&self, key: &[u8]) -> Option<Vec<u8>> {
        Some(parts(&self.find(key)?).1.to_vec())
    }

    /// First writer wins: true when `key` is already stored, counting a
    /// conflict if its payload differs from `value`.
    fn settled(&mut self, key: &[u8], value: &[u8]) -> bool {
        let Some(same) = self.find(key).map(|stored| parts(&stored).1 == value) else {
            return false;
        };
        if !same {
            self.dir.stats.conflicting_records += 1;
        }
        true
    }

    /// A compacted log: a [`STORE_VERSION`] header and the live records
    /// in log order, which is first-written order, each encoded in that
    /// version. A record that no longer reads back is left out.
    fn compacted(&self) -> Vec<u8> {
        let mut locs: Vec<Loc> = self.dir.index.values().copied().collect();
        locs.extend(self.dir.spill.values().flatten());
        locs.sort_unstable_by_key(|loc| loc.off);
        let mut out = header_bytes(STORE_VERSION).to_vec();
        for loc in locs {
            if let Some(record) = self.log.record(loc) {
                let (key, value) = parts(&record);
                let record = encode_record(STORE_VERSION, key, value)
                    .expect("a stored record is within the size bound");
                out.extend_from_slice(&record);
            }
        }
        out
    }
}

/// RAII guard for the writer lock: an exclusively-locked sibling
/// `.lock` file. Dropping it releases the OS lock. The lock *file* is
/// never unlinked — removing a locked file would let a waiter holding
/// the old inode and a newcomer creating a fresh one both "win".
struct LockGuard {
    file: File,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = self.file.unlock();
    }
}

/// Acquires the writer lock — an exclusive OS advisory lock
/// ([`File::try_lock`], `flock(2)` on Linux) on the sibling `.lock`
/// file — waiting up to [`LOCK_TIMEOUT`].
///
/// The OS lock is keyed to the open file description, so it excludes
/// other *handles* as well as other processes: two `Store`s on one path
/// in one process serialize exactly like two processes do. It cannot go
/// stale — the kernel drops it when the holder's descriptor closes,
/// crash included — so there is no staleness heuristic and no
/// break-the-lock race.
fn acquire_lock(lock_path: &Path) -> Result<LockGuard, StoreError> {
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(lock_path)?;
    let deadline = Instant::now() + LOCK_TIMEOUT;
    loop {
        match file.try_lock() {
            Ok(()) => {
                // Best-effort debuggability: leave the holder's PID in
                // the file. The lock itself never depends on it.
                let _ = file.set_len(0);
                let _ = write!(&file, "{}", std::process::id());
                return Ok(LockGuard { file });
            }
            Err(TryLockError::WouldBlock) => {
                if Instant::now() >= deadline {
                    return Err(StoreError::LockTimeout {
                        path: lock_path.to_path_buf(),
                    });
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(TryLockError::Error(e)) => return Err(StoreError::Io(e)),
        }
    }
}

/// Makes a directory-entry change (file creation or rename) durable by
/// fsyncing the parent directory — without this, `rename` itself can be
/// lost on power failure even though both files' contents were synced.
/// Platforms where a directory cannot be opened as a file skip silently;
/// the data-file fsyncs still hold there.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) else {
        return Ok(());
    };
    match File::open(parent) {
        Ok(dir) => dir.sync_all(),
        Err(_) => Ok(()),
    }
}

/// A content-addressed, versioned, crash-safe on-disk cache (see the
/// crate docs for the format and recovery rules).
///
/// The store is `Sync`: in-process readers and the writer share one
/// mutex (cheap — a lookup is a hash probe and a key compare, plus one
/// positioned read for a record past the image). The *file* lock only
/// serializes writers across processes; in-process and cross-process
/// readers never take it.
pub struct Store {
    path: PathBuf,
    lock_path: PathBuf,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("path", &self.path)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Store {
    /// Opens (or lazily creates) the store at `path`, scanning the
    /// existing log into memory. A missing file is an empty store; a
    /// file with a torn tail loses exactly the torn record(s past the
    /// first bad byte) and counts one corrupt record — never an error,
    /// never a panic. A file that is not a store log, or was written by
    /// a different [`STORE_VERSION`], is refused.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`], [`StoreError::NotAStore`],
    /// [`StoreError::VersionMismatch`].
    pub fn open(path: impl AsRef<Path>) -> Result<Store, StoreError> {
        Self::open_with(path.as_ref(), KeyHasher::default())
    }

    fn open_with(path: &Path, hasher: KeyHasher) -> Result<Store, StoreError> {
        let path = path.to_path_buf();
        let mut lock_path = path.clone().into_os_string();
        lock_path.push(".lock");
        let lock_path = PathBuf::from(lock_path);
        let (bytes, file) = read_log(&path)?;
        let inner = Inner::scan(&path, bytes, hasher, file)?;
        Ok(Store {
            path,
            lock_path,
            inner: Mutex::new(inner),
        })
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of distinct keys currently served.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().dir.stats.live_records
    }

    /// True when no key is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current health counters (as of open plus every write/resync
    /// since).
    pub fn stats(&self) -> StoreStats {
        self.inner.lock().unwrap().stats()
    }

    /// Looks up a key, returning the payload of the *first* record ever
    /// written under it. A record past the open-time image is read back
    /// from disk; one that no longer reads back intact is a miss.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.inner.lock().unwrap().value(key)
    }

    /// Appends one record durably (the data is flushed before the call
    /// returns); the record stays on disk, and only its index slot is
    /// kept in memory. First writer wins: a key that already exists with an
    /// identical payload is a no-op; one that exists with a *different*
    /// payload is rejected and counted as a conflict, and the stored
    /// payload is left untouched.
    ///
    /// Takes the writer lock (exclusive across processes and across
    /// handles) for the duration of the append; before appending it
    /// adopts any records another writer appended since our last scan,
    /// rescans from scratch if the file was replaced or shrank under us
    /// (a foreign `compact`), and truncates any torn tail.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`], [`StoreError::LockTimeout`],
    /// [`StoreError::RecordTooLarge`].
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        body_len(key, value)?;
        let mut inner = self.inner.lock().unwrap();
        if inner.settled(key, value) {
            return Ok(());
        }
        let _lock = acquire_lock(&self.lock_path)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&self.path)?;
        self.resync_locked(&mut inner, &mut file)?;
        // A concurrent writer may have stored this key while we waited
        // for the lock; re-apply first-writer-wins against the adopted
        // state.
        if inner.settled(key, value) {
            return Ok(());
        }
        // In the form of the log's version, which the resync settled.
        let record = encode_record(inner.log.version, key, value)?;
        let loc = Loc {
            off: inner.log.len,
            len: record.len() as u32,
        };
        file.seek(SeekFrom::Start(loc.off))?;
        file.write_all(&record)?;
        file.sync_data()?;
        inner.log.len += record.len() as u64;
        let Inner { log, dir } = &mut *inner;
        dir.index_record(log, loc, key, value);
        Ok(())
    }

    /// With the writer lock held: bring `inner` up to date with the file
    /// (indexing records other processes appended, which stay on disk,
    /// or rescanning a replaced file into a new image), write the header if
    /// the file is new, and physically truncate any torn tail so the
    /// next append lands on a valid boundary.
    fn resync_locked(&self, inner: &mut Inner, file: &mut File) -> Result<(), StoreError> {
        let meta = file.metadata()?;
        let (disk_len, id) = (meta.len(), file_id(&meta));
        let valid_len = inner.log.len;
        if disk_len == 0 && valid_len == 0 {
            file.write_all(&header_bytes(STORE_VERSION))?;
            file.sync_data()?;
            // Make the just-created log's directory entry durable too.
            sync_parent_dir(&self.path)?;
            inner.log.len = HEADER_LEN;
            inner.log.version = STORE_VERSION;
            inner.log.file = Some(LogFile::new(file.try_clone()?)?);
            return Ok(());
        }
        let same_file = inner.log.file.as_ref().is_some_and(|f| f.id == id);
        if valid_len < HEADER_LEN || !same_file || disk_len < valid_len {
            // Full rescan, three causes: we opened on a torn/absent
            // header but the file is nonempty (a concurrent writer may
            // have rewritten it); the file is another one (another
            // handle compacted the log into a new file, which later
            // appends may have grown past our prefix, so its length
            // proves nothing); or it *shrank* past our valid prefix.
            // Appending at the stale offset would land mid-record, or
            // punch a zero-filled hole, and the next scan would truncate
            // everything from there.
            let mut bytes = Vec::new();
            file.seek(SeekFrom::Start(0))?;
            file.read_to_end(&mut bytes)?;
            let prior_corrupt = inner.dir.stats.corrupt_records;
            let held = Some(LogFile::new(file.try_clone()?)?);
            let mut fresh = Inner::scan(&self.path, bytes, inner.dir.hasher.clone(), held)?;
            if fresh.log.len < HEADER_LEN {
                // Still torn: reset to an empty, well-formed log.
                file.set_len(0)?;
                file.seek(SeekFrom::Start(0))?;
                file.write_all(&header_bytes(STORE_VERSION))?;
                file.sync_data()?;
                fresh.log.len = HEADER_LEN;
                fresh.log.version = STORE_VERSION;
            }
            fresh.dir.stats.corrupt_records += prior_corrupt;
            *inner = fresh;
        } else if disk_len > valid_len {
            // Another process appended (or the tail is torn). Index what
            // parses of the new bytes; they are not kept.
            let mut appended = vec![0; (disk_len - valid_len) as usize];
            file.seek(SeekFrom::Start(valid_len))?;
            file.read_exact(&mut appended)?;
            let Inner { log, dir } = inner;
            log.len = dir.index_from(log, valid_len, &appended);
        }
        if file.metadata()?.len() > inner.log.len {
            // Whatever is left past the valid prefix is torn: cut it so
            // the next append does not bury a corrupt region.
            file.set_len(inner.log.len)?;
            file.sync_data()?;
        }
        Ok(())
    }

    /// Re-scans the log **from disk** and reports what a fresh open
    /// would find — the maintenance health check. The in-memory state is
    /// not modified.
    ///
    /// # Errors
    ///
    /// As [`Store::open`].
    pub fn verify(&self) -> Result<StoreStats, StoreError> {
        let (bytes, file) = read_log(&self.path)?;
        Ok(Inner::scan(&self.path, bytes, KeyHasher::default(), file)?.stats())
    }

    /// Rewrites the log atomically with only the live records (in
    /// first-written order), dropping dead, conflicting, and corrupt
    /// bytes, and a record that no longer reads back intact. The
    /// compacted log becomes the handle's image. Returns the stats of the
    /// compacted log.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`], [`StoreError::LockTimeout`].
    pub fn compact(&self) -> Result<StoreStats, StoreError> {
        let mut inner = self.inner.lock().unwrap();
        let _lock = acquire_lock(&self.lock_path)?;
        {
            let mut file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&self.path)?;
            self.resync_locked(&mut inner, &mut file)?;
        }
        let log = inner.compacted();
        let mut tmp_path = self.path.clone().into_os_string();
        tmp_path.push(".tmp");
        let tmp_path = PathBuf::from(tmp_path);
        // Read and write: the temp file becomes the held handle, which
        // later appends are read back from.
        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        tmp.write_all(&log)?;
        tmp.sync_all()?;
        std::fs::rename(&tmp_path, &self.path)?;
        // The rename itself is a directory-entry update; fsync the
        // parent so it survives power loss.
        sync_parent_dir(&self.path)?;
        let held = Some(LogFile::new(tmp)?);
        *inner = Inner::scan(&self.path, log, inner.dir.hasher.clone(), held)?;
        Ok(inner.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique scratch path under the system temp dir.
    fn scratch(name: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("mtk_store_{}_{}_{name}.log", std::process::id(), n))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
            let mut lock = self.0.clone().into_os_string();
            lock.push(".lock");
            let _ = std::fs::remove_file(lock);
        }
    }

    #[test]
    fn put_get_roundtrip_and_reopen() {
        let path = scratch("roundtrip");
        let _c = Cleanup(path.clone());
        let store = Store::open(&path).unwrap();
        assert!(store.is_empty());
        store.put(b"k1", b"v1").unwrap();
        store.put(b"k2", &[0u8, 255, 7]).unwrap();
        assert_eq!(store.get(b"k1").unwrap(), b"v1");
        assert_eq!(store.get(b"k2").unwrap(), vec![0u8, 255, 7]);
        assert_eq!(store.get(b"nope"), None);
        drop(store);
        // A fresh open (a "new process") serves the same bits.
        let again = Store::open(&path).unwrap();
        assert_eq!(again.len(), 2);
        assert_eq!(again.get(b"k1").unwrap(), b"v1");
        assert_eq!(again.stats().corrupt_records, 0);
    }

    #[test]
    fn first_writer_wins_on_conflicting_put() {
        let path = scratch("conflict");
        let _c = Cleanup(path.clone());
        let store = Store::open(&path).unwrap();
        store.put(b"k", b"first").unwrap();
        store.put(b"k", b"second").unwrap(); // rejected, counted
        assert_eq!(store.get(b"k").unwrap(), b"first");
        assert_eq!(store.stats().conflicting_records, 1);
        // Identical re-put is a free no-op, not a conflict.
        store.put(b"k", b"first").unwrap();
        assert_eq!(store.stats().conflicting_records, 1);
        assert_eq!(store.stats().dead_records, 0);
    }

    #[test]
    fn conflicting_records_on_disk_resolve_first_writer_wins() {
        let path = scratch("disk_conflict");
        let _c = Cleanup(path.clone());
        // Hand-craft a log with key "k" written twice with different
        // payloads and once redundantly.
        let mut bytes = header_bytes(STORE_VERSION).to_vec();
        for value in [&b"first"[..], b"second", b"first"] {
            bytes.extend_from_slice(&encode_record(STORE_VERSION, b"k", value).unwrap());
        }
        std::fs::write(&path, &bytes).unwrap();
        let store = Store::open(&path).unwrap();
        assert_eq!(store.get(b"k").unwrap(), b"first");
        let stats = store.stats();
        assert_eq!(stats.live_records, 1);
        assert_eq!(stats.conflicting_records, 1);
        assert_eq!(stats.dead_records, 1);
        assert_eq!(stats.corrupt_records, 0);
    }

    #[test]
    fn refuses_foreign_files_and_future_versions() {
        let path = scratch("foreign");
        let _c = Cleanup(path.clone());
        std::fs::write(&path, b"definitely not a store file").unwrap();
        assert!(matches!(
            Store::open(&path),
            Err(StoreError::NotAStore { .. })
        ));
        let mut future = MAGIC.to_vec();
        future.extend_from_slice(&(STORE_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &future).unwrap();
        assert!(matches!(
            Store::open(&path),
            Err(StoreError::VersionMismatch { found }) if found == STORE_VERSION + 1
        ));
    }

    #[test]
    fn torn_header_recovers_to_empty() {
        let path = scratch("torn_header");
        let _c = Cleanup(path.clone());
        std::fs::write(&path, &MAGIC[..5]).unwrap();
        let store = Store::open(&path).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.stats().corrupt_records, 1);
        // The next put heals the file.
        store.put(b"k", b"v").unwrap();
        drop(store);
        let again = Store::open(&path).unwrap();
        assert_eq!(again.get(b"k").unwrap(), b"v");
        assert_eq!(again.stats().corrupt_records, 0);
    }

    #[test]
    fn compact_drops_dead_and_corrupt_bytes() {
        let path = scratch("compact");
        let _c = Cleanup(path.clone());
        let mut bytes = header_bytes(STORE_VERSION).to_vec();
        bytes.extend_from_slice(&encode_record(STORE_VERSION, b"a", b"1").unwrap());
        bytes.extend_from_slice(&encode_record(STORE_VERSION, b"a", b"1").unwrap()); // dead
        bytes.extend_from_slice(&encode_record(STORE_VERSION, b"b", b"2").unwrap());
        bytes.extend_from_slice(&encode_record(STORE_VERSION, b"a", b"X").unwrap()); // conflict
        bytes.extend_from_slice(&[9, 9, 9]); // torn tail
        std::fs::write(&path, &bytes).unwrap();
        let store = Store::open(&path).unwrap();
        let before = store.stats();
        assert_eq!(before.live_records, 2);
        assert_eq!(before.dead_records, 1);
        assert_eq!(before.conflicting_records, 1);
        assert_eq!(before.corrupt_records, 1);
        let after = store.compact().unwrap();
        assert_eq!(after.live_records, 2);
        assert_eq!(after.dead_records + after.conflicting_records, 0);
        assert_eq!(after.corrupt_records, 0);
        // Reopen: clean, same content, smaller file.
        let again = Store::open(&path).unwrap();
        assert_eq!(again.get(b"a").unwrap(), b"1");
        assert_eq!(again.get(b"b").unwrap(), b"2");
        assert_eq!(again.stats(), after);
        assert!(again.verify().unwrap().corrupt_records == 0);
    }

    #[test]
    fn two_handles_interleave_through_the_lock() {
        // Two Store handles on the same path (as two processes would
        // have): appends through either are visible to fresh opens, and
        // the second handle adopts the first's records on its next put.
        let path = scratch("two_handles");
        let _c = Cleanup(path.clone());
        let a = Store::open(&path).unwrap();
        let b = Store::open(&path).unwrap();
        a.put(b"ka", b"va").unwrap();
        b.put(b"kb", b"vb").unwrap(); // resyncs, adopts ka, appends kb
        assert_eq!(b.get(b"ka").unwrap(), b"va");
        let fresh = Store::open(&path).unwrap();
        assert_eq!(fresh.len(), 2);
        assert_eq!(fresh.get(b"ka").unwrap(), b"va");
        assert_eq!(fresh.get(b"kb").unwrap(), b"vb");
        assert_eq!(fresh.stats().corrupt_records, 0);
    }

    #[test]
    fn leftover_lock_file_does_not_block() {
        let path = scratch("leftover_lock");
        let _c = Cleanup(path.clone());
        let mut lock = path.clone().into_os_string();
        lock.push(".lock");
        // A lock file left behind by a crashed writer (any contents —
        // the OS lock died with the process) must not block acquisition.
        std::fs::write(&lock, format!("{}", std::process::id())).unwrap();
        let store = Store::open(&path).unwrap();
        store.put(b"k", b"v").unwrap();
        assert_eq!(store.get(b"k").unwrap(), b"v");
    }

    #[test]
    fn same_process_handles_contend_for_the_lock() {
        // Regression for the own-PID staleness bug: handle A holding the
        // writer lock must exclude handle B *in the same process*. With
        // the old PID-file scheme B saw its own PID, declared the lock
        // stale, broke it, and corrupted the log.
        let path = scratch("same_process_contend");
        let _c = Cleanup(path.clone());
        let a = Store::open(&path).unwrap();
        let guard = acquire_lock(&a.lock_path).unwrap();
        let b = Store::open(&path).unwrap();
        // B must *wait*, not break A's lock. A short probe on the lock
        // file itself proves exclusion without eating the full timeout.
        let probe = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&b.lock_path)
            .unwrap();
        assert!(matches!(probe.try_lock(), Err(TryLockError::WouldBlock)));
        drop(guard);
        // Released: B acquires and appends normally.
        b.put(b"k", b"v").unwrap();
        assert_eq!(Store::open(&path).unwrap().get(b"k").unwrap(), b"v");
    }

    #[test]
    fn concurrent_two_handle_writers_never_corrupt() {
        // Two handles on one log hammered from two threads of one
        // process: every record must survive, bit-exact, zero corrupt.
        let path = scratch("concurrent_two_handles");
        let _c = Cleanup(path.clone());
        let a = std::sync::Arc::new(Store::open(&path).unwrap());
        let b = std::sync::Arc::new(Store::open(&path).unwrap());
        let mut threads = Vec::new();
        for (id, store) in [(0u8, a), (1u8, b)] {
            threads.push(std::thread::spawn(move || {
                for i in 0..50u8 {
                    store.put(&[id, i], &[i; 17]).unwrap();
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let fresh = Store::open(&path).unwrap();
        assert_eq!(fresh.len(), 100);
        assert_eq!(fresh.stats().corrupt_records, 0);
        for id in 0..2u8 {
            for i in 0..50u8 {
                assert_eq!(fresh.get(&[id, i]).unwrap(), vec![i; 17]);
            }
        }
    }

    #[test]
    fn append_after_foreign_compact_rescans_shrunk_file() {
        // Handle B's valid_len can point past EOF after another handle
        // compacts the log. A put through B must rescan from scratch,
        // not seek past EOF (which would punch a zero-filled hole and
        // orphan the appended record).
        let path = scratch("shrunk_by_compact");
        let _c = Cleanup(path.clone());
        let mut bytes = header_bytes(STORE_VERSION).to_vec();
        bytes.extend_from_slice(&encode_record(STORE_VERSION, b"k", b"v1").unwrap());
        bytes.extend_from_slice(&encode_record(STORE_VERSION, b"k", b"v1").unwrap()); // dead
        bytes.extend_from_slice(&encode_record(STORE_VERSION, b"j", b"v2").unwrap());
        std::fs::write(&path, &bytes).unwrap();
        let b = Store::open(&path).unwrap(); // valid_len spans all 3 records
        let a = Store::open(&path).unwrap();
        a.compact().unwrap(); // drops the dead record: file shrinks
        b.put(b"new", b"v3").unwrap(); // must detect the shrink
        let fresh = Store::open(&path).unwrap();
        assert_eq!(fresh.get(b"k").unwrap(), b"v1");
        assert_eq!(fresh.get(b"j").unwrap(), b"v2");
        assert_eq!(fresh.get(b"new").unwrap(), b"v3");
        assert_eq!(fresh.stats().corrupt_records, 0);
        assert_eq!(fresh.len(), 3);
    }

    #[test]
    fn append_after_foreign_compact_rescans_regrown_file() {
        // After A compacts the log into a new file and appends past the
        // old length, the file's size no longer tells B anything: only
        // its identity shows it is not the log B scanned. A put through
        // B must rescan, not scan the new file from its stale offset
        // (landing mid-record: one corrupt record, and a truncation
        // that cuts A's fsynced records and B's own).
        let path = scratch("regrown_by_compact");
        let _c = Cleanup(path.clone());
        let mut bytes = header_bytes(STORE_VERSION).to_vec();
        bytes.extend_from_slice(&encode_record(STORE_VERSION, b"k", b"v1").unwrap());
        bytes.extend_from_slice(&encode_record(STORE_VERSION, b"k", b"v1").unwrap()); // dead
        bytes.extend_from_slice(&encode_record(STORE_VERSION, b"j", b"v2").unwrap());
        std::fs::write(&path, &bytes).unwrap();
        let b = Store::open(&path).unwrap(); // image spans all 3 records
        let a = Store::open(&path).unwrap();
        a.compact().unwrap(); // a new, shorter file
        a.put(b"a1", &[1; 40]).unwrap();
        a.put(b"a2", &[2; 40]).unwrap(); // now longer than B's prefix
        assert!(std::fs::metadata(&path).unwrap().len() > b.stats().log_bytes);
        b.put(b"new", b"v3").unwrap();
        let fresh = Store::open(&path).unwrap();
        assert_eq!(fresh.get(b"k").unwrap(), b"v1");
        assert_eq!(fresh.get(b"j").unwrap(), b"v2");
        assert_eq!(fresh.get(b"a1").unwrap(), [1; 40]);
        assert_eq!(fresh.get(b"a2").unwrap(), [2; 40]);
        assert_eq!(fresh.get(b"new").unwrap(), b"v3");
        assert_eq!(fresh.stats().corrupt_records, 0);
        assert_eq!(fresh.len(), 5);
        assert_eq!(b.stats(), fresh.stats(), "B rescanned the new file");
    }

    #[test]
    fn compact_keeps_first_written_order_across_handles() {
        // A adopts B's records between its own puts; the compacted log
        // lists every record where it was first written, byte for byte.
        let path = scratch("compact_order");
        let _c = Cleanup(path.clone());
        let a = Store::open(&path).unwrap();
        let b = Store::open(&path).unwrap();
        let records: Vec<(Vec<u8>, Vec<u8>)> = (0..12u8)
            .map(|i| (vec![b'k', i], vec![i; 3 + i as usize]))
            .collect();
        for (i, (key, value)) in records.iter().enumerate() {
            let writer = if i % 3 == 1 { &b } else { &a };
            writer.put(key, value).unwrap();
        }
        a.put(&records[0].0, b"conflict").unwrap(); // counted, not written
        let stats = a.compact().unwrap();
        let mut want = header_bytes(STORE_VERSION).to_vec();
        for (key, value) in &records {
            want.extend_from_slice(&encode_record(STORE_VERSION, key, value).unwrap());
        }
        assert_eq!(std::fs::read(&path).unwrap(), want);
        assert_eq!(stats.live_records, records.len());
        assert_eq!(stats.log_bytes, want.len() as u64);
    }

    fn colliding() -> KeyHasher {
        KeyHasher {
            collide_all: true,
            ..KeyHasher::default()
        }
    }

    #[test]
    fn colliding_hashes_spill_and_resolve_by_the_full_key() {
        let path = scratch("spill");
        let _c = Cleanup(path.clone());
        let key = |i: u8| vec![b's', i];
        let store = Store::open_with(&path, colliding()).unwrap();
        for i in 0..20u8 {
            store.put(&key(i), &[i; 5]).unwrap();
        }
        store.put(&key(7), b"other").unwrap(); // a spilled key still wins
        {
            let inner = store.inner.lock().unwrap();
            assert_eq!(inner.dir.index.len(), 1, "every key hashes to 0");
            assert_eq!(inner.dir.spill[&0].len(), 19);
        }
        for i in 0..20u8 {
            assert_eq!(store.get(&key(i)).unwrap(), [i; 5]);
        }
        assert_eq!(store.get(b"absent"), None);
        let stats = store.stats();
        assert_eq!((stats.live_records, stats.conflicting_records), (20, 1));
        // The same file through the real hasher, and after compaction.
        let plain = Store::open(&path).unwrap();
        let compacted = store.compact().unwrap();
        assert_eq!(compacted.live_records, 20);
        assert_eq!(plain.verify().unwrap(), compacted);
        for i in 0..20u8 {
            assert_eq!(plain.get(&key(i)).unwrap(), [i; 5]);
            assert_eq!(store.get(&key(i)).unwrap(), [i; 5]);
        }
    }

    /// First-writer-wins over a record list: the live map, and the dead
    /// and conflicting records a scan of it counts.
    fn tally(records: &[(Vec<u8>, Vec<u8>)]) -> (HashMap<Vec<u8>, Vec<u8>>, usize, usize) {
        let (mut live, mut dead, mut conflicting) = (HashMap::new(), 0, 0);
        for (key, value) in records {
            match live.get(key) {
                Some(first) if first == value => dead += 1,
                Some(_) => conflicting += 1,
                None => {
                    live.insert(key.clone(), value.clone());
                }
            }
        }
        (live, dead, conflicting)
    }

    fn log_image(version: u32, records: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
        let mut out = header_bytes(version).to_vec();
        for (key, value) in records {
            out.extend_from_slice(&encode_record(version, key, value).unwrap());
        }
        out
    }

    /// Drives handle A through a seeded mix of puts, gets, reopens,
    /// foreign appends and puts, torn tails, and compactions by A and by
    /// another handle, on a log that starts at `version`. After every
    /// step A's answers, A's `stats()` and the file's bytes must match a
    /// model: the file as a record list plus a torn tail in the file's
    /// version (a compaction makes it [`STORE_VERSION`]), and A's mirror
    /// as the record list it scanned.
    fn check_against_model(seed: u64, hasher: KeyHasher, version: u32) {
        let path = scratch("model");
        let _c = Cleanup(path.clone());
        if version != STORE_VERSION {
            // A new log is a current one: an older one starts as a header.
            std::fs::write(&path, header_bytes(version)).unwrap();
        }
        let mut version = version;
        let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut draw = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let key = |k: u64| format!("key{k}:{}", "x".repeat(k as usize * 7)).into_bytes();
        let value = |k: u64, v: u64| vec![(k * 3 + v) as u8; 1 + (k + v) as usize * 5];
        const KEYS: u64 = 10;

        // The file: valid records in log order, then torn bytes.
        let mut disk = vec![(key(0), value(0, 0))];
        let mut torn: Vec<u8> = Vec::new();
        // A's mirror, and the counters a scan of it does not give.
        let mut mirror = disk.clone();
        let (mut put_conflicts, mut corrupt) = (0, 0);
        // False once another handle replaced the file A mirrors.
        let mut same_file = true;

        let mut a = Store::open_with(&path, hasher.clone()).unwrap();
        a.put(&disk[0].0, &disk[0].1).unwrap();
        for step in 0..160 {
            let (k, v) = (draw(KEYS), draw(3));
            let op = draw(100);
            // A resync (A's put past its own map, or A's compact): adopt
            // the file, counting and cutting a torn tail.
            let resync = |mirror: &mut Vec<_>,
                          disk: &Vec<_>,
                          torn: &mut Vec<u8>,
                          same_file: &mut bool,
                          put_conflicts: &mut usize,
                          corrupt: &mut usize| {
                if !*same_file {
                    *put_conflicts = 0; // a full rescan starts fresh counts
                    *same_file = true;
                }
                *mirror = disk.clone();
                *corrupt += usize::from(!torn.is_empty());
                torn.clear();
            };
            match op {
                0..=34 => {
                    let (key, value) = (key(k), value(k, v));
                    let known = tally(&mirror).0.get(&key).cloned();
                    let stored = known.or_else(|| {
                        resync(
                            &mut mirror,
                            &disk,
                            &mut torn,
                            &mut same_file,
                            &mut put_conflicts,
                            &mut corrupt,
                        );
                        tally(&disk).0.get(&key).cloned()
                    });
                    match stored {
                        Some(first) => put_conflicts += usize::from(first != value),
                        None => {
                            disk.push((key.clone(), value.clone()));
                            mirror = disk.clone();
                        }
                    }
                    a.put(&key, &value).unwrap();
                }
                35..=49 => {} // gets are checked after every step
                50..=57 => {
                    drop(a);
                    a = Store::open_with(&path, hasher.clone()).unwrap();
                    mirror = disk.clone();
                    put_conflicts = 0;
                    corrupt = usize::from(!torn.is_empty());
                    same_file = true;
                }
                58..=69 => {
                    // A writer that neither locks nor resyncs: dead and
                    // conflicting records reach the log this way.
                    let record = encode_record(version, &key(k), &value(k, v)).unwrap();
                    let mut file = OpenOptions::new().append(true).open(&path).unwrap();
                    file.write_all(&record).unwrap();
                    if torn.is_empty() {
                        disk.push((key(k), value(k, v)));
                    } else {
                        torn.extend_from_slice(&record); // buried
                    }
                }
                70..=79 => {
                    let b = Store::open(&path).unwrap();
                    b.put(&key(k), &value(k, v)).unwrap();
                    if !tally(&disk).0.contains_key(&key(k)) {
                        torn.clear();
                        disk.push((key(k), value(k, v)));
                    }
                }
                80..=85 => {
                    // A crash mid-append.
                    let record = encode_record(version, &key(k), &value(k, v)).unwrap();
                    let cut = 1 + draw(record.len() as u64 - 1) as usize;
                    let mut file = OpenOptions::new().append(true).open(&path).unwrap();
                    file.write_all(&record[..cut]).unwrap();
                    torn.extend_from_slice(&record[..cut]);
                }
                86..=92 => {
                    resync(
                        &mut mirror,
                        &disk,
                        &mut torn,
                        &mut same_file,
                        &mut put_conflicts,
                        &mut corrupt,
                    );
                    a.compact().unwrap();
                    let (live, ..) = tally(&disk);
                    let mut seen = std::collections::HashSet::new();
                    disk.retain(|(key, value)| live[key] == *value && seen.insert(key.clone()));
                    mirror = disk.clone();
                    (put_conflicts, corrupt) = (0, 0);
                    version = STORE_VERSION;
                }
                _ => {
                    Store::open(&path).unwrap().compact().unwrap();
                    let (live, ..) = tally(&disk);
                    let mut seen = std::collections::HashSet::new();
                    disk.retain(|(key, value)| live[key] == *value && seen.insert(key.clone()));
                    torn.clear();
                    same_file = false;
                    version = STORE_VERSION;
                }
            }
            let (live, dead, conflicting) = tally(&mirror);
            let want = StoreStats {
                live_records: live.len(),
                dead_records: dead,
                conflicting_records: conflicting + put_conflicts,
                corrupt_records: corrupt,
                log_bytes: log_image(version, &mirror).len() as u64,
            };
            assert_eq!(a.stats(), want, "seed {seed} step {step} op {op}");
            for k in 0..KEYS {
                assert_eq!(a.get(&key(k)).as_ref(), live.get(&key(k)), "step {step}");
            }
            let mut image = log_image(version, &disk);
            image.extend_from_slice(&torn);
            assert!(std::fs::read(&path).unwrap() == image, "step {step} file");
        }
        let fresh = Store::open(&path).unwrap();
        let (live, dead, conflicting) = tally(&disk);
        for k in 0..KEYS {
            assert_eq!(fresh.get(&key(k)).as_ref(), live.get(&key(k)));
        }
        let stats = fresh.stats();
        assert_eq!(
            (
                stats.live_records,
                stats.dead_records,
                stats.conflicting_records
            ),
            (live.len(), dead, conflicting)
        );
        assert_eq!(stats.corrupt_records, usize::from(!torn.is_empty()));
    }

    #[test]
    fn seeded_operations_match_a_first_writer_wins_model() {
        for seed in 1..=4 {
            check_against_model(seed, KeyHasher::default(), STORE_VERSION);
        }
    }

    #[test]
    fn seeded_operations_on_a_version_1_log_match_the_model() {
        for seed in 8..=10 {
            check_against_model(seed, KeyHasher::default(), FNV_VERSION);
        }
    }

    #[test]
    fn seeded_operations_match_the_model_when_every_hash_collides() {
        for seed in 5..=7 {
            check_against_model(seed, colliding(), STORE_VERSION);
        }
    }

    fn image_len(store: &Store) -> usize {
        store.inner.lock().unwrap().log.image.len()
    }

    #[test]
    fn put_leaves_the_image_unchanged() {
        let path = scratch("image_flat");
        let _c = Cleanup(path.clone());
        let fresh = Store::open(&path).unwrap();
        fresh.put(b"a", &[1; 300]).unwrap();
        assert_eq!(image_len(&fresh), 0, "a new log loads no image");
        assert_eq!(fresh.get(b"a").unwrap(), [1; 300]);
        drop(fresh);
        let store = Store::open(&path).unwrap();
        let loaded = image_len(&store);
        assert_eq!(loaded as u64, store.stats().log_bytes);
        for i in 0..20u8 {
            store.put(&[b'k', i], &[i; 700]).unwrap();
            assert_eq!(image_len(&store), loaded, "put {i}");
        }
        assert_eq!(
            store.stats().log_bytes,
            std::fs::metadata(&path).unwrap().len()
        );
        assert_eq!(store.get(b"a").unwrap(), [1; 300], "from the image");
        for i in 0..20u8 {
            assert_eq!(store.get(&[b'k', i]).unwrap(), [i; 700], "from disk");
        }
        assert_eq!(image_len(&store), loaded);
    }

    #[test]
    fn records_another_handle_appended_are_read_back_from_disk() {
        let path = scratch("adopted");
        let _c = Cleanup(path.clone());
        let a = Store::open(&path).unwrap();
        a.put(b"first", b"1").unwrap();
        let b = Store::open(&path).unwrap();
        let loaded = image_len(&b);
        a.put(b"ka", &[7; 900]).unwrap();
        a.put(b"kb", &[8; 90]).unwrap();
        assert_eq!(b.get(b"ka"), None, "not adopted before B resyncs");
        b.put(b"own", b"2").unwrap(); // resyncs: adopts ka and kb
        assert_eq!(image_len(&b), loaded, "adopted records stay on disk");
        assert_eq!(b.get(b"ka").unwrap(), [7; 900]);
        assert_eq!(b.get(b"kb").unwrap(), [8; 90]);
        assert_eq!(b.get(b"first").unwrap(), b"1");
        b.put(b"ka", b"other").unwrap(); // first writer wins, read from disk
        assert_eq!(b.stats().conflicting_records, 1);
        let mut fresh = Store::open(&path).unwrap().stats();
        fresh.conflicting_records += 1; // B's rejected put is not on disk
        assert_eq!(b.stats(), fresh);
        // Compaction reads the on-disk records back into its new image.
        let stats = b.compact().unwrap();
        assert_eq!(stats.live_records, 4);
        assert_eq!(image_len(&b) as u64, stats.log_bytes);
        assert_eq!(b.get(b"ka").unwrap(), [7; 900]);
    }

    #[test]
    fn an_appended_record_changed_on_disk_reads_as_a_miss() {
        let path = scratch("changed_on_disk");
        let _c = Cleanup(path.clone());
        Store::open(&path).unwrap().put(b"k1", b"kept").unwrap();
        let store = Store::open(&path).unwrap();
        let at = store.stats().log_bytes;
        store.put(b"k2", b"value-2").unwrap();
        let overwrite = |bytes: &[u8]| {
            let mut file = OpenOptions::new().write(true).open(&path).unwrap();
            file.seek(SeekFrom::Start(at)).unwrap();
            file.write_all(bytes).unwrap();
        };
        // A valid record of the same length under another key: length
        // and checksum hold, the key check catches it.
        overwrite(&encode_record(STORE_VERSION, b"k9", b"value-9").unwrap());
        assert_eq!(store.get(b"k2"), None);
        assert_eq!(store.get(b"k9"), None, "never indexed");
        // Garbage: the checksum catches it.
        overwrite(&[0xA5; 8]);
        assert_eq!(store.get(b"k2"), None);
        assert_eq!(store.get(b"k1").unwrap(), b"kept");
        // A put of the lost key appends it again, and compaction keeps
        // what still reads back.
        store.put(b"k2", b"value-2").unwrap();
        assert_eq!(store.get(b"k2").unwrap(), b"value-2");
        let stats = store.compact().unwrap();
        assert_eq!((stats.live_records, stats.corrupt_records), (2, 0));
        assert_eq!(store.get(b"k2").unwrap(), b"value-2");

        // An out-of-band truncation through an appended record: a short
        // read, then a rescan on the next put.
        let at = store.stats().log_bytes;
        store.put(b"k3", &[3; 64]).unwrap();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(at + 10).unwrap();
        assert_eq!(store.get(b"k3"), None);
        store.put(b"k4", b"after").unwrap();
        assert_eq!(store.get(b"k3"), None);
        assert_eq!(store.get(b"k4").unwrap(), b"after");
        assert_eq!(store.get(b"k1").unwrap(), b"kept");
        assert_eq!(store.stats().corrupt_records, 1, "the cut record");
        let fresh = Store::open(&path).unwrap();
        assert_eq!(fresh.len(), 3);
        assert_eq!(fresh.stats().corrupt_records, 0, "the put cut the tail");
    }

    #[test]
    fn oversized_record_rejected() {
        let path = scratch("oversized");
        let _c = Cleanup(path.clone());
        let store = Store::open(&path).unwrap();
        // Construct the error without allocating 64 MiB: key_len alone
        // cannot exceed the bound, so check encode_record directly.
        let err =
            encode_record(STORE_VERSION, &[0u8; (MAX_BODY_BYTES as usize) + 1], b"").unwrap_err();
        assert!(matches!(err, StoreError::RecordTooLarge { .. }));
        drop(store);
    }
}
