//! Inputs, scratch space and process facts shared by every workload.

use mtk_core::sizing::Transition;
use mtk_fe::Design;
use mtk_netlist::logic::Logic;
use mtk_num::prng::Xoshiro256pp;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Directory (relative to the checkout root the benchmark runs from)
/// under which each run makes its own scratch directory.
const SCRATCH_ROOT: &str = ".bench_tmp";

/// A fresh scratch directory inside the checkout, removed on drop
/// together with the shared parent once that is empty.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `.bench_tmp/<tag>-<pid>-<nanos>`.
    pub fn new(tag: &str) -> Result<ScratchDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = Path::new(SCRATCH_ROOT).join(format!("{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create scratch dir {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Fails (harmlessly) while another run still has a directory here.
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A committed golden design with its `vector` lines dropped (the
/// benchmark draws its own transitions from the seed), plus its
/// canonical `.mtk` text.
pub struct Golden {
    pub design: Design,
    pub text: String,
}

/// Loads `examples/<name>.mtk` from the checkout root.
pub fn golden(name: &str) -> Result<Golden, String> {
    let path = Path::new("examples").join(format!("{name}.mtk"));
    let src = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut design =
        mtk_fe::parse_str(&src, &path.display().to_string()).map_err(|e| e.to_string())?;
    design.vectors.clear();
    let text = design.to_mtk();
    Ok(Golden { design, text })
}

/// Random transition number `j` of operation `op` over `inputs` primary
/// inputs, drawn from PRNG stream `(seed, op·2³² + j)`: every operation
/// of a run gets inputs of its own.
pub fn random_transition(inputs: usize, seed: u64, op: usize, j: usize) -> Transition {
    let mut rng = Xoshiro256pp::stream(seed, ((op as u64) << 32) + j as u64);
    let mut side = || -> Vec<Logic> {
        (0..inputs)
            .map(|_| {
                if rng.next_bool() {
                    Logic::One
                } else {
                    Logic::Zero
                }
            })
            .collect()
    };
    let from = side();
    Transition::new(from, side())
}

/// The first `count` random transitions of operation `op`.
pub fn random_transitions(inputs: usize, seed: u64, op: usize, count: usize) -> Vec<Transition> {
    (0..count)
        .map(|j| random_transition(inputs, seed, op, j))
        .collect()
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// FNV-1a over a sequence of 64-bit words (little-endian), the digest
/// the correctness gates commit.
pub fn digest_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = words.into_iter().flat_map(u64::to_le_bytes).collect();
    mtk_store::fnv1a(&bytes)
}
