//! Content-addressed on-disk cache of deterministic run results.
//!
//! Every sweep cell ([`crate::runner::WorkItem`] + [`RunPlan`]) is a
//! pure function of its inputs: the simulator is deterministic given
//! the configuration, benchmark, seed, and plan. That
//! makes its [`RunResult`] cacheable by content address — a 64-bit
//! FNV-1a key over a canonical rendering of exactly those inputs plus
//! a fingerprint of the running binary, so a rebuilt simulator never
//! serves stale results. Hits return the stored result; misses
//! simulate and populate the cache atomically (write-temp-then-rename),
//! so a warm re-run of a whole sweep simulates nothing and produces
//! byte-identical artifacts.
//!
//! The cache is OFF at the library level: nothing here runs unless a
//! binary calls [`install_from_env`] (the `experiments` harness does,
//! by default). `CGCT_CACHE=0` disables it; `CGCT_CACHE_DIR` moves it
//! (default `.cgct-cache`). It also stays off under `CGCT_TRACE` and
//! `CGCT_SANITIZE`: those runs exist to *exercise* the simulator,
//! which a cache hit would silently skip.
//!
//! Entries are self-validating: an envelope records the payload's byte
//! length and FNV-1a digest, so truncated or corrupted files are
//! detected on read and treated as misses (re-simulated, then
//! overwritten) rather than trusted or panicked over.

use crate::config::SystemConfig;
use crate::machine::RunResult;
use crate::runner::RunPlan;
use cgct_sim::hash::fnv1a;
use cgct_sim::{Json, Snap};
use cgct_workloads::BenchmarkSpec;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Envelope format version.
const VERSION: u64 = 1;

/// FNV-1a fingerprint of the running executable's bytes, computed once
/// per process. `None` when the executable cannot be read (the cache
/// stays disabled rather than risking stale hits across rebuilds).
pub fn code_fingerprint() -> Option<u64> {
    static FP: OnceLock<Option<u64>> = OnceLock::new();
    *FP.get_or_init(|| {
        let exe = std::env::current_exe().ok()?;
        let bytes = std::fs::read(exe).ok()?;
        Some(fnv1a(&bytes))
    })
}

/// The content address of one sweep cell: FNV-1a over a canonical
/// rendering of everything the result is a function of — the binary's
/// code fingerprint, the full configuration, the benchmark definition,
/// the seed, and the plan's per-cell knobs. Deliberately excluded:
/// the worker count (`CGCT_JOBS`), tracing, and sanitizing — none of
/// them change the result bytes (and traced/sanitized runs bypass the
/// cache entirely).
pub fn cache_key(cfg: &SystemConfig, spec: &BenchmarkSpec, seed: u64, plan: &RunPlan) -> u64 {
    let canonical = format!(
        "v{VERSION}\ncode={:016x}\nconfig={cfg:?}\nbenchmark={spec:?}\nseed={seed}\n\
         warmup={}\ninstructions={}\nmax_cycles={}\n",
        code_fingerprint().unwrap_or(0),
        plan.warmup_per_core,
        plan.instructions_per_core,
        plan.max_cycles,
    );
    fnv1a(canonical.as_bytes())
}

/// What one garbage collection accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries examined.
    pub scanned: u64,
    /// Entries kept (current code fingerprint, intact envelope).
    pub kept: u64,
    /// Entries removed (stale code fingerprint or corrupt).
    pub removed: u64,
    /// Bytes reclaimed by the removals.
    pub bytes_reclaimed: u64,
}

/// A content-addressed result store rooted at one directory.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Monotonic suffix for temp-file names (unique within process).
    temp_seq: AtomicU64,
}

impl ResultCache {
    /// Opens (and lazily creates) a cache rooted at `dir`.
    pub fn new(dir: PathBuf) -> Self {
        ResultCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            temp_seq: AtomicU64::new(0),
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Cache hits served since construction (or the last
    /// [`ResultCache::reset_counts`]).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed since construction (or the last
    /// [`ResultCache::reset_counts`]).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Zeroes the hit/miss counters (per-section reporting).
    pub fn reset_counts(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    /// Looks up `key`, returning the stored result only if the entry's
    /// envelope is intact: version and code fingerprint current, and
    /// the payload's length and FNV-1a digest both matching. Anything
    /// else — missing file, truncation, corruption, stale binary — is
    /// a miss; the caller re-simulates and overwrites.
    pub fn lookup(&self, key: u64) -> Option<RunResult> {
        let result = self.read_validated(key);
        match result {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    fn read_validated(&self, key: u64) -> Option<RunResult> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        let envelope = Json::parse(&text).ok()?;
        let fp = code_fingerprint()?;
        match validate_envelope(&envelope, fp) {
            Ok(payload) => RunResult::unsnap(payload).ok(),
            Err(_) => None,
        }
    }

    /// Stores `result` under `key` atomically: the envelope is written
    /// to a unique temp file in the cache directory and renamed into
    /// place, so readers never observe a partial entry. I/O errors are
    /// swallowed — a cache that cannot write degrades to re-simulation.
    pub fn store(&self, key: u64, result: &RunResult) {
        let Some(fp) = code_fingerprint() else {
            return;
        };
        let payload = result.snap();
        let payload_text = payload.dump();
        let envelope = Json::obj([
            ("v", Json::u64(VERSION)),
            ("code_fp", Json::u64(fp)),
            ("len", Json::u64(payload_text.len() as u64)),
            ("fnv", Json::u64(fnv1a(payload_text.as_bytes()))),
            ("payload", payload),
        ]);
        if std::fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        let temp = self.dir.join(format!(
            ".tmp-{}-{}-{key:016x}",
            std::process::id(),
            self.temp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&temp, envelope.dump()).is_err() {
            let _ = std::fs::remove_file(&temp);
            return;
        }
        if std::fs::rename(&temp, self.entry_path(key)).is_err() {
            let _ = std::fs::remove_file(&temp);
        }
    }

    /// Removes entries that can never hit again: stale code
    /// fingerprints, unsupported versions, and corrupt or truncated
    /// envelopes. Leftover temp files are removed too. Returns what was
    /// reclaimed.
    ///
    /// # Errors
    ///
    /// Fails when the cache directory exists but cannot be read.
    pub fn gc(&self) -> Result<GcReport, String> {
        let mut report = GcReport::default();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(report),
            Err(err) => return Err(format!("cannot read {}: {err}", self.dir.display())),
        };
        let fp = code_fingerprint().unwrap_or(0);
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let size = entry.metadata().map(|m| m.len()).unwrap_or(0);
            if name.starts_with(".tmp-") {
                if std::fs::remove_file(&path).is_ok() {
                    report.removed += 1;
                    report.bytes_reclaimed += size;
                }
                continue;
            }
            if !name.ends_with(".json") {
                continue;
            }
            report.scanned += 1;
            let intact = std::fs::read_to_string(&path)
                .ok()
                .and_then(|text| Json::parse(&text).ok())
                .is_some_and(|env| validate_envelope(&env, fp).is_ok());
            if intact {
                report.kept += 1;
            } else if std::fs::remove_file(&path).is_ok() {
                report.removed += 1;
                report.bytes_reclaimed += size;
            }
        }
        Ok(report)
    }
}

/// Checks an envelope's version, code fingerprint, and payload
/// integrity (length + FNV-1a over the payload's canonical dump, which
/// is exact because every float in a snapshot is stored as an integer
/// bit pattern). Returns the payload on success.
fn validate_envelope(envelope: &Json, fp: u64) -> Result<&Json, String> {
    use cgct_sim::snap::{field, unsnap_field};
    let version: u64 = unsnap_field(envelope, "v")?;
    if version != VERSION {
        return Err(format!("unsupported cache entry version {version}"));
    }
    let entry_fp: u64 = unsnap_field(envelope, "code_fp")?;
    if entry_fp != fp {
        return Err("entry was written by a different binary".to_string());
    }
    let payload = field(envelope, "payload")?;
    let text = payload.dump();
    let len: u64 = unsnap_field(envelope, "len")?;
    if len != text.len() as u64 {
        return Err("payload length mismatch".to_string());
    }
    let digest: u64 = unsnap_field(envelope, "fnv")?;
    if digest != fnv1a(text.as_bytes()) {
        return Err("payload digest mismatch".to_string());
    }
    Ok(payload)
}

/// The process-global cache used by [`crate::runner`]'s cached path.
static GLOBAL: OnceLock<Option<ResultCache>> = OnceLock::new();

/// Installs the process-global result cache from the environment (via
/// the [`crate::config::env_knobs`] seam): rooted at `CGCT_CACHE_DIR`
/// (default `.cgct-cache`). Returns whether a cache is active
/// afterwards — `false` when `CGCT_CACHE=0`, when `CGCT_TRACE` /
/// `CGCT_SANITIZE` ask for a run that must actually execute, or when
/// the binary cannot fingerprint itself. Idempotent; the first call
/// decides.
pub fn install_from_env() -> bool {
    GLOBAL
        .get_or_init(|| {
            let knobs = crate::config::env_knobs();
            if knobs.cache_disabled || knobs.trace || knobs.sanitize || code_fingerprint().is_none()
            {
                return None;
            }
            let dir = knobs.cache_dir.unwrap_or_else(|| ".cgct-cache".to_string());
            Some(ResultCache::new(PathBuf::from(dir)))
        })
        .is_some()
}

/// The installed global cache, if [`install_from_env`] activated one.
/// Libraries and tests that never install one run fully uncached.
pub fn global() -> Option<&'static ResultCache> {
    GLOBAL.get().and_then(|c| c.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoherenceMode;
    use crate::runner::run_once;
    use cgct_workloads::by_name;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cgct-resultcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_result() -> (RunResult, SystemConfig, BenchmarkSpec, RunPlan) {
        let mut cfg = SystemConfig::paper_default(CoherenceMode::Baseline);
        cfg.perturbation = 0;
        let spec = by_name("barnes").unwrap();
        let plan = RunPlan {
            warmup_per_core: 0,
            instructions_per_core: 1_000,
            max_cycles: 1_000_000,
            runs: 1,
            base_seed: 3,
        };
        let r = run_once(&cfg, &spec, 3, &plan);
        (r, cfg, spec, plan)
    }

    #[test]
    fn roundtrip_hit_returns_identical_result() {
        let (r, cfg, spec, plan) = small_result();
        let cache = ResultCache::new(temp_dir("roundtrip"));
        let key = cache_key(&cfg, &spec, 3, &plan);
        assert!(cache.lookup(key).is_none(), "cold cache must miss");
        cache.store(key, &r);
        let hit = cache.lookup(key).expect("warm cache must hit");
        assert_eq!(hit.snap().dump(), r.snap().dump());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncated_and_corrupt_entries_miss_without_panicking() {
        let (r, cfg, spec, plan) = small_result();
        let cache = ResultCache::new(temp_dir("corrupt"));
        let key = cache_key(&cfg, &spec, 3, &plan);
        cache.store(key, &r);
        let path = cache.dir().join(format!("{key:016x}.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        // Truncation: the envelope no longer parses.
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(cache.lookup(key).is_none());
        // Corruption that still parses: flip a digit inside the payload.
        let poisoned = text.replacen("\"runtime_cycles\":", "\"runtime_cycles\":9", 1);
        assert_ne!(poisoned, text, "poison must change the payload");
        std::fs::write(&path, poisoned).unwrap();
        assert!(cache.lookup(key).is_none());
        // Re-simulating and re-storing recovers the entry.
        cache.store(key, &r);
        assert!(cache.lookup(key).is_some());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn keys_separate_every_input() {
        let (_, cfg, spec, plan) = small_result();
        let base = cache_key(&cfg, &spec, 3, &plan);
        assert_eq!(base, cache_key(&cfg, &spec, 3, &plan), "key is stable");
        assert_ne!(base, cache_key(&cfg, &spec, 4, &plan), "seed in key");
        let mut other = plan;
        other.instructions_per_core += 1;
        assert_ne!(base, cache_key(&cfg, &spec, 3, &other), "plan in key");
        let mut cfg2 = cfg.clone();
        cfg2.perturbation += 1;
        assert_ne!(base, cache_key(&cfg2, &spec, 3, &plan), "config in key");
        let spec2 = by_name("ocean").unwrap();
        assert_ne!(base, cache_key(&cfg, &spec2, 3, &plan), "benchmark in key");
    }

    #[test]
    fn gc_prunes_stale_and_corrupt_entries() {
        let (r, cfg, spec, plan) = small_result();
        let cache = ResultCache::new(temp_dir("gc"));
        let key = cache_key(&cfg, &spec, 3, &plan);
        cache.store(key, &r);
        // A stale entry: same shape, wrong code fingerprint.
        let text = std::fs::read_to_string(cache.dir().join(format!("{key:016x}.json"))).unwrap();
        let stale = text.replacen("\"code_fp\":", "\"code_fp\":1", 1);
        std::fs::write(cache.dir().join("00000000000000ff.json"), stale).unwrap();
        // A corrupt entry and a leftover temp file.
        std::fs::write(cache.dir().join("00000000000000fe.json"), "{trunc").unwrap();
        std::fs::write(cache.dir().join(".tmp-1-2-dead"), "junk").unwrap();
        let report = cache.gc().unwrap();
        assert_eq!(report.scanned, 3);
        assert_eq!(report.kept, 1);
        assert_eq!(report.removed, 3, "stale + corrupt + temp");
        assert!(report.bytes_reclaimed > 0);
        assert!(cache.lookup(key).is_some(), "live entry survives gc");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn gc_of_missing_directory_is_empty() {
        let cache = ResultCache::new(temp_dir("missing"));
        assert_eq!(cache.gc().unwrap(), GcReport::default());
    }
}
