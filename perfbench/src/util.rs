//! Small shared pieces: the benchmark's own seeded generator, order
//! statistics, per-layer timers, temp directories and process facts.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// `--seed` and on nothing in the program under test.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn bits(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.next_u64() & 1 == 1).collect()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

pub fn bit_string(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// Quantile by linear interpolation between closest ranks (`q` in 0..=1).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Wall time per layer, accumulated on the calling thread by timing the
/// benchmark's own calls into each module. Calls are sequential and
/// disjoint, so the layer sums can never exceed the op's wall time.
///
/// With `trace` set, each call also runs under an in-memory trace sink
/// and hands back the spans and counters the program emitted inside it.
#[derive(Default, Debug)]
pub struct Layers {
    pub trace: bool,
    pub ms: BTreeMap<&'static str, f64>,
    pub counts: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn new(trace: bool) -> Layers {
        Layers {
            trace,
            ..Layers::default()
        }
    }

    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        self.traced(layer, f).0
    }

    /// Times one call; when tracing, also returns the program's events.
    pub fn traced<R>(
        &mut self,
        layer: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, Vec<odcfp_obs::Event>) {
        let t = Instant::now();
        let out = if self.trace {
            odcfp_obs::capture(f).expect("the benchmark installs no other trace sink")
        } else {
            (f(), Vec::new())
        };
        *self.ms.entry(layer).or_insert(0.0) += ms(t);
        out
    }

    pub fn add(&mut self, counter: &'static str, v: f64) {
        *self.counts.entry(counter).or_insert(0.0) += v;
    }

    pub fn ms_of(&self, layer: &str) -> f64 {
        self.ms.get(layer).copied().unwrap_or(0.0)
    }

    pub fn count_of(&self, counter: &str) -> f64 {
        self.counts.get(counter).copied().unwrap_or(0.0)
    }

    pub fn attributed_ms(&self) -> f64 {
        self.ms.values().sum()
    }
}

/// A scratch directory under the checkout's `.bench_tmp`, removed on drop
/// (the benchmark reads and writes only inside its working directory).
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = PathBuf::from(".bench_tmp").join(format!("{tag}-{}-{stamp}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create benchmark temp dir");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Peak resident set (`VmHWM`) of a process in MiB, from `/proc`.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out revision, read from `.git` in the working directory
/// only; `unknown` in an exported tree.
pub fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    if let Some(r) = head.strip_prefix("ref: ") {
        if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(r)) {
            return rev.trim().to_owned();
        }
        let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
        for line in packed.lines() {
            if let Some((rev, name)) = line.split_once(' ') {
                if name == r {
                    return rev.to_owned();
                }
            }
        }
    } else if !head.is_empty() {
        return head.to_owned();
    }
    "unknown".into()
}
