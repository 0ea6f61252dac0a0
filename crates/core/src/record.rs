//! The byte formats of the result records the sizing flows keep in a
//! persistent [`mtk_store::Store`], one namespace per tag (DESIGN.md
//! §13.1): screening legs (`leg1`, [`crate::sizing`]), Monte Carlo
//! trials (`mct1`, [`crate::mc`]) and cluster decisions (`clu2`,
//! [`crate::cluster`]). Each flow lays out its own fields; the pieces
//! they share are written once here — the value reader, the
//! [`RunHealth`] counters, the logic-level byte, the simulator-option
//! key bytes, and the write-through ([`through`]) every flow reads and
//! writes its records by. A tag is versioned separately from the store container
//! format: bump it when its key or value encoding changes, so stale
//! records read as misses, never as wrong answers.

use crate::health::RunHealth;
use crate::vbsim::VbsimOptions;
use mtk_netlist::logic::Logic;

/// Tag prefix of screening-leg records.
pub(crate) const LEG_TAG: &[u8; 4] = b"leg1";
/// Tag prefix of Monte Carlo trial records.
pub(crate) const TRIAL_TAG: &[u8; 4] = b"mct1";
/// Tag prefix of cluster-decision records. `clu2` records hold a
/// decision against the target the key carries; `clu1` records held a
/// target-free worst degradation.
pub(crate) const CLUSTER_TAG: &[u8; 4] = b"clu2";

/// Bytes of the encoded [`RunHealth`] counters.
pub(crate) const HEALTH_LEN: usize = 48;

/// The key byte of one logic level.
pub(crate) fn level(l: Logic) -> u8 {
    match l {
        Logic::Zero => 0,
        Logic::One => 1,
        Logic::X => 2,
    }
}

/// The key bytes of every [`VbsimOptions`] field the simulator reads
/// apart from the sleep network: the body-effect and reverse-conduction
/// flags, then `t_stop`'s bits and the breakpoint budget, little-endian.
pub(crate) fn sim_key(base: &VbsimOptions) -> [u8; 18] {
    let mut out = [0u8; 18];
    out[0] = base.body_effect as u8;
    out[1] = base.reverse_conduction as u8;
    out[2..10].copy_from_slice(&base.t_stop.to_bits().to_le_bytes());
    out[10..].copy_from_slice(&(base.max_events as u64).to_le_bytes());
    out
}

/// Appends every [`RunHealth`] counter as a little-endian `u64` — the
/// stored health is what makes a replay's telemetry bit-identical to the
/// run that wrote it.
pub(crate) fn put_health(out: &mut Vec<u8>, h: &RunHealth) {
    for v in [
        h.breakpoints,
        h.max_events,
        h.glitch_reversals,
        h.vx_fallbacks,
        h.cache_hits,
        h.cache_misses,
    ] {
        out.extend_from_slice(&(v as u64).to_le_bytes());
    }
}

/// Where [`through`] found a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// Decoded from a store record.
    Stored,
    /// Computed, and written through when there is a store.
    Computed,
    /// Computed, and the write-through failed.
    PutFailed,
}

/// The one write-through of the result records: with a store, a record
/// under `key` that `decode`s is the value; anything else is `compute`d
/// and, with a store, `encode`d under `key`. A failed write is reported
/// as [`Source::PutFailed`], never raised — it degrades to
/// recompute-on-rerun. An error of `compute` propagates and writes
/// nothing.
pub(crate) fn through<T, E>(
    store: Option<&mtk_store::Store>,
    key: &[u8],
    decode: impl FnOnce(&[u8]) -> Option<T>,
    compute: impl FnOnce() -> Result<T, E>,
    encode: impl FnOnce(&T) -> Vec<u8>,
) -> Result<(T, Source), E> {
    let Some(store) = store else {
        return Ok((compute()?, Source::Computed));
    };
    if let Some(value) = store.get(key).and_then(|b| decode(&b)) {
        return Ok((value, Source::Stored));
    }
    let value = compute()?;
    let source = match store.put(key, &encode(&value)) {
        Ok(()) => Source::Computed,
        Err(_) => Source::PutFailed,
    };
    Ok((value, source))
}

/// A cursor over one stored value. Every read past the end, and every
/// flag byte other than 0 or 1, is `None`, so a malformed record
/// decodes to a miss, never to an answer or a panic.
pub(crate) struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader(bytes)
    }

    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.0.split_first_chunk::<N>()?;
        self.0 = rest;
        Some(*head)
    }

    /// A length of items of `item_len` bytes each, `None` when fewer
    /// bytes remain than it promises — so no decoder allocates for a
    /// length the record cannot hold.
    pub(crate) fn count(&mut self, item_len: usize) -> Option<usize> {
        let n = u32::from_le_bytes(self.take()?) as usize;
        (n <= self.0.len() / item_len).then_some(n)
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_le_bytes)
    }

    pub(crate) fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    pub(crate) fn flag(&mut self) -> Option<bool> {
        match self.take::<1>()? {
            [0] => Some(false),
            [1] => Some(true),
            _ => None,
        }
    }

    /// The counters [`put_health`] wrote.
    pub(crate) fn health(&mut self) -> Option<RunHealth> {
        Some(RunHealth {
            breakpoints: self.u64()? as usize,
            max_events: self.u64()? as usize,
            glitch_reversals: self.u64()? as usize,
            vx_fallbacks: self.u64()? as usize,
            cache_hits: self.u64()? as usize,
            cache_misses: self.u64()? as usize,
        })
    }

    /// `value` when every byte was read, `None` when any is left over.
    pub(crate) fn end<T>(self, value: T) -> Option<T> {
        self.0.is_empty().then_some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{decode_eval, encode_eval};
    use crate::mc::{decode_trial, encode_trial, TrialSample};
    use crate::sizing::LegResult;
    use mtk_num::prng::Xoshiro256pp;

    /// Takes one valid record through truncation at every length,
    /// appended bytes, every single-bit flip and random multi-byte
    /// splices. `decodes` reports whether the bytes decode to a record;
    /// a panic anywhere fails the test.
    fn mutate(valid: &[u8], decodes: &dyn Fn(&[u8]) -> bool, rng: &mut Xoshiro256pp) {
        assert!(decodes(valid), "the valid record decodes");
        for n in 0..valid.len() {
            assert!(!decodes(&valid[..n]), "truncated to {n} bytes");
        }
        for extra in 1..=9 {
            for fill in [0, rng.next_u64() as u8] {
                let long = [valid, &vec![fill; extra]].concat();
                assert!(!decodes(&long), "extended by {extra} bytes");
            }
        }
        for bit in 0..valid.len() * 8 {
            let mut flipped = valid.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            decodes(&flipped);
        }
        for _ in 0..256 {
            let at = rng.next_index(valid.len() + 1);
            let cut = at + rng.next_index(valid.len() - at + 1);
            let fill: Vec<u8> = (0..rng.next_index(17))
                .map(|_| rng.next_u64() as u8)
                .collect();
            decodes(&[&valid[..at], &fill, &valid[cut..]].concat());
        }
    }

    #[test]
    fn every_record_round_trips_and_no_mutation_decodes_past_its_bytes_or_panics() {
        let mut rng = Xoshiro256pp::stream(0x7265_636f_7264, 0);
        let health = RunHealth {
            breakpoints: 123,
            max_events: 200_000,
            glitch_reversals: 4,
            vx_fallbacks: 1,
            cache_hits: 0,
            cache_misses: 3,
        };

        // leg1: crossings with and without a time, both flags.
        for leg in [
            LegResult {
                crossings: vec![Some(1.5e-10), None, Some(-0.0)],
                stalled: true,
                truncated: false,
                health,
            },
            LegResult {
                crossings: Vec::new(),
                stalled: false,
                truncated: true,
                health: RunHealth::default(),
            },
        ] {
            let bytes = leg.encode();
            assert_eq!(LegResult::decode(&bytes), Some(leg));
            mutate(&bytes, &|b| LegResult::decode(b).is_some(), &mut rng);
        }

        // mct1: a replayed sample says it came from the store.
        let sample = TrialSample {
            degradation: 0.0734,
            bounce: 0.0521,
            pass_at_width: vec![false, true, true],
            from_store: false,
        };
        for retried in [true, false] {
            let bytes = encode_trial(&sample, retried, &health);
            let stored = TrialSample {
                from_store: true,
                ..sample.clone()
            };
            assert_eq!(decode_trial(&bytes), Some((stored, retried, health)));
            mutate(&bytes, &|b| decode_trial(b).is_some(), &mut rng);
        }

        // clu2: the failing index is kept, and one past the transition
        // list is malformed, not served.
        for failed in [None, Some(0), Some(5)] {
            let bytes = encode_eval(failed, &health);
            assert_eq!(decode_eval(&bytes, 6), Some((failed, health)));
            mutate(&bytes, &|b| decode_eval(b, 6).is_some(), &mut rng);
        }
        assert_eq!(decode_eval(&encode_eval(Some(5), &health), 5), None);
    }

    /// One tag's value through [`through`]: under a key whose stored
    /// bytes do not decode, under a fresh key (computed, then stored), with
    /// no store, with a failing computation, and — once `break_store` has
    /// run — with a put that fails.
    fn write_through<T: Clone + PartialEq + std::fmt::Debug>(
        store: &mtk_store::Store,
        tag: &[u8; 4],
        value: &T,
        decode: &dyn Fn(&[u8]) -> Option<T>,
        encode: &dyn Fn(&T) -> Vec<u8>,
        break_store: &dyn Fn(),
    ) {
        let key = |name: &str| [&tag[..], name.as_bytes()].concat();
        let computes = std::cell::Cell::new(0);
        let compute = || {
            computes.set(computes.get() + 1);
            Ok::<T, &str>(value.clone())
        };
        let run = |store, key: &[u8]| through(store, key, decode, compute, encode);

        // A stored record that does not decode is recomputed and reported
        // as computed; the store keeps its first record.
        let junk = [0xFFu8; 3];
        assert_eq!(decode(&junk), None);
        store.put(&key("junk"), &junk).unwrap();
        let found = run(Some(store), &key("junk"));
        assert_eq!(found, Ok((value.clone(), Source::Computed)));
        assert_eq!(computes.get(), 1);

        // A fresh key is computed and written; the next lookup decodes it.
        assert_eq!(
            run(Some(store), &key("fresh")),
            Ok((value.clone(), Source::Computed))
        );
        assert_eq!(
            run(Some(store), &key("fresh")),
            Ok((value.clone(), Source::Stored))
        );
        assert_eq!(computes.get(), 2);
        assert_eq!(
            run(None, &key("fresh")),
            Ok((value.clone(), Source::Computed))
        );
        assert_eq!(computes.get(), 3);

        // A failed computation propagates and writes nothing.
        let failed = through(Some(store), &key("error"), decode, || Err("no"), encode);
        assert_eq!(failed, Err("no"));
        assert_eq!(store.get(&key("error")), None);

        // A failed put still returns the computed value.
        break_store();
        assert_eq!(
            run(Some(store), &key("put")),
            Ok((value.clone(), Source::PutFailed))
        );
        assert_eq!(computes.get(), 4);
    }

    #[test]
    fn the_write_through_recomputes_undecodable_records_and_reports_failed_puts() {
        let health = RunHealth {
            breakpoints: 77,
            max_events: 200_000,
            glitch_reversals: 2,
            vx_fallbacks: 0,
            cache_hits: 1,
            cache_misses: 5,
        };
        let leg = LegResult {
            crossings: vec![Some(2.5e-10), None],
            stalled: false,
            truncated: true,
            health,
        };
        // A replayed trial says it came from the store.
        let trial = (
            TrialSample {
                degradation: 0.0612,
                bounce: 0.0433,
                pass_at_width: vec![true, false],
                from_store: true,
            },
            true,
            health,
        );
        let decision = (Some(3), health);
        let root = std::env::temp_dir().join(format!("mtk_record_through_{}", std::process::id()));
        for tag in [LEG_TAG, TRIAL_TAG, CLUSTER_TAG] {
            // Each tag gets its own log, whose directory a failed put
            // needs gone: the writer lock cannot be created there.
            let dir = root.join(std::str::from_utf8(tag).unwrap());
            std::fs::create_dir_all(&dir).unwrap();
            let store = mtk_store::Store::open(dir.join("records.log")).unwrap();
            let break_store = || std::fs::remove_dir_all(&dir).unwrap();
            match tag {
                LEG_TAG => write_through(
                    &store,
                    tag,
                    &leg,
                    &LegResult::decode,
                    &LegResult::encode,
                    &break_store,
                ),
                TRIAL_TAG => write_through(
                    &store,
                    tag,
                    &trial,
                    &decode_trial,
                    &|(sample, retried, run)| encode_trial(sample, *retried, run),
                    &break_store,
                ),
                _ => write_through(
                    &store,
                    tag,
                    &decision,
                    &|b| decode_eval(b, 6),
                    &|&(failed, run)| encode_eval(failed, &run),
                    &break_store,
                ),
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
