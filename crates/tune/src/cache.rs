//! The persisted tuning database.
//!
//! A flat JSON file mapping cache keys to tuned configurations. Keys are
//! human-readable strings encoding everything the result depends on — the
//! model's architectural fingerprint, the device, the library profile, the
//! workload bucket, and hashes of the search-space bounds and search mode —
//! so any drift in the question invalidates the answer instead of silently
//! reusing it. The file carries a format version; loading a file written by
//! a different version discards it rather than guessing at migration.

use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::{LibraryProfile, ModelConfig, RunParams};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::oracle::TuneWorkload;
use crate::search::SearchMode;
use crate::space::SearchSpace;

/// Format version of the persisted database. Bump on any change to the key
/// derivation or entry layout. v2: `RunParams` grew the `SDF16` strategy
/// (fp16 LS accumulation) and the oracle a fourth (numeric-certification)
/// gate — results tuned without it are not comparable. v3: entries record
/// the device they were tuned on.
pub const CACHE_VERSION: u32 = 3;

/// One tuned result: the winning configuration and both sides of the
/// comparison that justified it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheEntry {
    /// The tuned run parameters (for the bucket's representative workload).
    pub params: RunParams,
    /// Simulated time of the tuned schedule, seconds.
    pub cost_s: f64,
    /// Simulated time of the default ([`RunParams::default`]-derived)
    /// schedule for the same workload, seconds.
    pub default_cost_s: f64,
    /// Name of the device the result was tuned on (matches the `dev=`
    /// segment of its key). Nothing reads it back; it stays because it is
    /// part of the v3 file format.
    pub device: String,
}

/// The tuning database: versioned, ordered (deterministic serialization).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneDb {
    /// Format version ([`CACHE_VERSION`] when written by this build).
    pub version: u32,
    /// Tuned entries by cache key.
    pub entries: BTreeMap<String, CacheEntry>,
}

impl Default for TuneDb {
    fn default() -> Self {
        Self::new()
    }
}

impl TuneDb {
    /// An empty database at the current version.
    pub fn new() -> Self {
        TuneDb {
            version: CACHE_VERSION,
            entries: BTreeMap::new(),
        }
    }

    /// Loads a database from `path`. A missing file yields an empty
    /// database; an unreadable, unparsable, or version-mismatched file is
    /// discarded (empty database) so a stale cache can never poison tuning
    /// results.
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Self::new()),
            Err(e) => return Err(e),
        };
        match serde_json::from_str::<TuneDb>(&text) {
            Ok(db) if db.version == CACHE_VERSION => Ok(db),
            _ => Ok(Self::new()),
        }
    }

    /// Writes the database to `path` as pretty JSON, creating the parent
    /// directory first.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let json = serde_json::to_string_pretty(self).expect("tuning database serializes");
        std::fs::write(path, format!("{json}\n"))
    }
}

/// FNV-1a 64-bit hash rendered as fixed-width hex — used to keep the
/// search-space and mode components of cache keys short and stable without
/// pulling in a hashing dependency.
pub fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

/// Derives the cache key for one tuning question. Everything that can
/// change the answer is in the key: model architecture, device, library
/// profile (with its overhead factors), the workload *bucket*, and the
/// fingerprints of the search bounds and mode.
pub fn cache_key(
    model: &ModelConfig,
    device: &DeviceSpec,
    profile: &LibraryProfile,
    space: &SearchSpace,
    mode: &SearchMode,
    bucket: &TuneWorkload,
) -> String {
    let attn = fnv1a(format!("{:?}", model.attention).as_bytes());
    format!(
        "v{CACHE_VERSION}|model={}/{}l/{}d/{}h/{}ff/attn-{attn}|dev={}|prof={}/{}{}/{}x{}|wl={}|space={}|mode={}",
        model.name,
        model.layers,
        model.d_model,
        model.heads,
        model.d_ff,
        device.name,
        profile.name,
        u8::from(profile.separate_scale_mask),
        u8::from(profile.separate_elementwise),
        profile.softmax_overhead,
        profile.matmul_overhead,
        bucket.label(),
        space.fingerprint(),
        mode.fingerprint(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use resoftmax_model::SoftmaxStrategy;

    fn entry() -> CacheEntry {
        CacheEntry {
            params: RunParams::new(1024).strategy(SoftmaxStrategy::Recomposed),
            cost_s: 0.5,
            default_cost_s: 1.0,
            device: "a100".to_owned(),
        }
    }

    #[test]
    fn key_distinguishes_every_dimension() {
        let space = SearchSpace::smoke();
        let mode = SearchMode::Exhaustive;
        let bucket = TuneWorkload::Prefill {
            seq_len: 1024,
            batch: 1,
        };
        let prof = LibraryProfile::ours_baseline();
        let base = cache_key(
            &ModelConfig::bert_large(),
            &DeviceSpec::a100(),
            &prof,
            &space,
            &mode,
            &bucket,
        );
        let other_model = cache_key(
            &ModelConfig::gpt_neo_1_3b(),
            &DeviceSpec::a100(),
            &prof,
            &space,
            &mode,
            &bucket,
        );
        let other_dev = cache_key(
            &ModelConfig::bert_large(),
            &DeviceSpec::t4(),
            &prof,
            &space,
            &mode,
            &bucket,
        );
        let other_space = cache_key(
            &ModelConfig::bert_large(),
            &DeviceSpec::a100(),
            &prof,
            &SearchSpace::paper_default(),
            &mode,
            &bucket,
        );
        let other_wl = cache_key(
            &ModelConfig::bert_large(),
            &DeviceSpec::a100(),
            &prof,
            &space,
            &mode,
            &TuneWorkload::Decode { ctxs: vec![1024] },
        );
        let keys = [&base, &other_model, &other_dev, &other_space, &other_wl];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Same question, same key.
        assert_eq!(
            base,
            cache_key(
                &ModelConfig::bert_large(),
                &DeviceSpec::a100(),
                &prof,
                &space,
                &mode,
                &bucket,
            )
        );
    }

    /// Pins the key format every `TUNE_CACHE.json` entry is stored under:
    /// a change here orphans every persisted answer, so it must come with a
    /// [`CACHE_VERSION`] bump.
    #[test]
    fn key_format_is_pinned() {
        let bucket = TuneWorkload::Prefill {
            seq_len: 512,
            batch: 1,
        };
        let key = cache_key(
            &ModelConfig::bert_base(),
            &DeviceSpec::a100(),
            &crate::oracle::default_params(&bucket).profile,
            &SearchSpace::paper_default(),
            &SearchMode::Exhaustive,
            &bucket,
        );
        assert_eq!(
            key,
            "v3|model=BERT-base/12l/768d/12h/3072ff/attn-1a81ad6e94290f68|dev=A100|\
             prof=Ours-baseline/00/1x1|wl=prefill/L512/b1|space=3659b86678ae3338|\
             mode=2ffc4f982ba40b31"
        );
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), "cbf29ce484222325");
        assert_eq!(fnv1a(b"resoftmax"), fnv1a(b"resoftmax"));
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    #[cfg_attr(miri, ignore = "file I/O is not available under miri isolation")]
    fn db_round_trips_and_rejects_stale_versions() {
        let dir = std::env::temp_dir().join(format!("resoftmax-tune-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");

        // Missing file → empty db.
        let _ = std::fs::remove_file(&path);
        let db = TuneDb::load(&path).unwrap();
        assert!(db.entries.is_empty());

        // Round trip.
        let mut db = TuneDb::new();
        db.entries.insert("k".to_owned(), entry());
        db.save(&path).unwrap();
        assert_eq!(TuneDb::load(&path).unwrap(), db);

        // Version mismatch → discarded.
        let stale = TuneDb {
            version: CACHE_VERSION + 1,
            ..db.clone()
        };
        stale.save(&path).unwrap();
        assert!(TuneDb::load(&path).unwrap().entries.is_empty());

        // Garbage → discarded, not an error.
        std::fs::write(&path, "not json").unwrap();
        assert!(TuneDb::load(&path).unwrap().entries.is_empty());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
