//! Adversarial tests of the `RSSN` snapshot container, mirroring the
//! WAL's `wal_codec` sweep: a snapshot damaged at *any* byte — flipped
//! or cut — must fail a verified load with a clean typed
//! [`PersistError`], never a panic and never a silently-wrong engine.
//! Alongside the sweep, the compatibility refusals: a future or
//! previous format version, an unknown section tag, a wrong-endian magic
//! and a snapshot/WAL position mismatch are each a distinct typed error.

use std::path::PathBuf;

use proptest::prelude::*;
use ranksim_core::engine::{Algorithm, Engine, EngineBuilder};
use ranksim_core::persist::{manifest_file, FORMAT_VERSION};
use ranksim_core::wal::{SyncPolicy, WalWriter};
use ranksim_core::{
    load_engine, load_sharded, load_sharded_manifest, save_engine, save_sharded, LoadMode,
    PersistError, ShardStrategy, ShardedEngineBuilder, SnapshotEngine, SnapshotMeta,
};
use ranksim_datasets::nyt_like;
use ranksim_rankings::{raw_threshold, QueryStats, RankingId};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ranksim-persistcodec-{tag}-{}.rssn",
        std::process::id()
    ))
}

/// A deliberately tiny engine that still populates **every** section of
/// the container: all four posting-list indexes, both coarse indexes,
/// the planner and a non-empty delta + tombstone
/// plane. Small, because the sweep is quadratic in the file length.
fn probe_engine(n: usize, seed: u64) -> Engine {
    let ds = nyt_like(n, 6, seed);
    let mut engine = EngineBuilder::new(ds.store)
        .coarse_threshold(0.4)
        .coarse_drop_threshold(0.06)
        .build();
    // Touch the mutable planes so DELTA carries real data.
    let donor = engine.store().items(RankingId(0)).to_vec();
    engine.insert_ranking(&donor);
    engine.remove_ranking(RankingId(1));
    // One Auto query seeds the planner's observation tables.
    let mut scratch = engine.scratch();
    let mut stats = QueryStats::new();
    let q = engine.store().items(RankingId(2)).to_vec();
    engine.query_items(
        Algorithm::Auto,
        &q,
        raw_threshold(0.2, 6),
        &mut scratch,
        &mut stats,
    );
    engine
}

/// Saves the probe engine once and returns its raw container bytes.
fn probe_snapshot(tag: &str) -> (Vec<u8>, PathBuf) {
    let path = temp_path(tag);
    let engine = probe_engine(32, 11);
    save_engine(
        &path,
        &engine,
        SnapshotMeta {
            log_pos: 7,
            wal_base: 3,
        },
    )
    .expect("save probe snapshot");
    let bytes = std::fs::read(&path).expect("read probe snapshot back");
    (bytes, path)
}

/// Every single-byte flip (single-bit and whole-byte masks) must fail a
/// verified load with a typed error: the container's tiling rule leaves
/// no byte uncovered — header and table bytes are structurally pinned,
/// pad bytes must be zero, payload bytes are checksummed.
#[test]
fn flipping_any_byte_fails_a_verified_load() {
    let (bytes, path) = probe_snapshot("flip");
    for mask in [0x01u8, 0xFF] {
        for offset in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[offset] ^= mask;
            std::fs::write(&path, &damaged).unwrap();
            match load_engine(&path, LoadMode::Verify) {
                Err(e) => {
                    // The error must render (no Display panic) and stay
                    // typed — an Io error here would mean the parser
                    // leaked a raw read failure for in-bounds damage.
                    let msg = e.to_string();
                    assert!(!msg.is_empty());
                    assert!(
                        !matches!(e, PersistError::Io(_)),
                        "flip at {offset} (mask {mask:#04x}) surfaced as raw I/O: {msg}"
                    );
                }
                Ok(_) => panic!(
                    "flip at {offset} (mask {mask:#04x}) of {} bytes loaded silently",
                    bytes.len()
                ),
            }
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// Every truncation point must fail a verified load with a typed error:
/// the final section's padded end is required to equal the file length,
/// so even a cut falling on a section boundary is caught.
#[test]
fn cutting_the_snapshot_at_any_length_fails_a_verified_load() {
    let (bytes, path) = probe_snapshot("cut");
    for cut in 0..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        match load_engine(&path, LoadMode::Verify) {
            Err(e) => {
                let _ = e.to_string();
            }
            Ok(_) => panic!("cut at {cut} of {} bytes loaded silently", bytes.len()),
        }
    }
    std::fs::remove_file(&path).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random multi-byte damage (the sweep's single-flip guarantee does
    /// not automatically compose): any combination of flips must still
    /// fail a verified load or — only when every flip cancels out —
    /// load the identical engine. `proptest` picks offsets and masks.
    #[test]
    fn random_multi_byte_damage_never_loads_silently(
        flips in proptest::collection::vec(0u32..u32::MAX, 1..8),
        tag in 0u32..1_000_000,
    ) {
        let (bytes, path) = probe_snapshot(&format!("multi-{tag}"));
        let mut damaged = bytes.clone();
        for token in &flips {
            // Low bits pick the offset, high byte the (non-zero) mask.
            let mask = ((token >> 24) as u8).max(1);
            damaged[(token & 0x00FF_FFFF) as usize % bytes.len()] ^= mask;
        }
        std::fs::write(&path, &damaged).unwrap();
        let outcome = load_engine(&path, LoadMode::Verify);
        std::fs::remove_file(&path).unwrap();
        match outcome {
            Err(e) => prop_assert!(!e.to_string().is_empty()),
            Ok(_) => prop_assert_eq!(
                damaged, bytes,
                "damaged container loaded although bytes differ"
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Forward/negative compatibility: each refusal is a distinct typed error
// ---------------------------------------------------------------------

/// Rewrites the little-endian format version at bytes 4..8 of `path`.
fn stamp_version(path: &std::path::Path, version: u32) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[4..8].copy_from_slice(&version.to_le_bytes());
    std::fs::write(path, &bytes).unwrap();
}

#[test]
fn future_format_version_is_refused_by_name() {
    let (_, path) = probe_snapshot("future-version");
    stamp_version(&path, FORMAT_VERSION + 1);
    match load_engine(&path, LoadMode::Verify) {
        Err(PersistError::UnsupportedVersion(v)) if v == FORMAT_VERSION + 1 => {}
        Err(other) => panic!("expected UnsupportedVersion, got {other:?}"),
        Ok(_) => panic!("future version must not load"),
    }
    std::fs::remove_file(&path).unwrap();
}

/// Version 2 files carry a top-k tree section and two build flags,
/// version 3 files a kernel tag and a planner refresh budget, and
/// version 4 files a posting-order tag, rank planes, coarse medoid tables
/// and planner skip rates, that this reader no longer knows: a snapshot
/// and a sharded manifest stamped with any of them are refused by
/// version, in both load modes, before any section is decoded.
#[test]
fn previous_format_version_is_refused_for_snapshot_and_manifest() {
    let dir = std::env::temp_dir().join(format!(
        "ranksim-persistcodec-previous-manifest-{}",
        std::process::id()
    ));
    let mut builder = ShardedEngineBuilder::new(6, 2, ShardStrategy::Hash);
    builder.extend_from_store(&nyt_like(24, 6, 3).store);
    save_sharded(&dir, &builder.build()).expect("save sharded probe");
    for old in [2u32, 3, 4] {
        let (_, path) = probe_snapshot("previous-version");
        stamp_version(&path, old);
        for mode in [LoadMode::Verify, LoadMode::Trust] {
            match load_engine(&path, mode) {
                Err(PersistError::UnsupportedVersion(v)) if v == old => {}
                Err(other) => panic!("expected UnsupportedVersion({old}), got {other:?}"),
                Ok(_) => panic!("a version-{old} snapshot must not load"),
            }
        }
        std::fs::remove_file(&path).unwrap();

        stamp_version(&manifest_file(&dir), old);
        for mode in [LoadMode::Verify, LoadMode::Trust] {
            assert!(matches!(
                load_sharded(&dir, mode),
                Err(PersistError::UnsupportedVersion(v)) if v == old
            ));
        }
        assert!(matches!(
            load_sharded_manifest(&dir),
            Err(PersistError::UnsupportedVersion(v)) if v == old
        ));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_section_tag_is_refused_by_tag() {
    let (mut bytes, path) = probe_snapshot("unknown-section");
    // Bytes 16..20 are the first section-table entry's tag.
    bytes[16..20].copy_from_slice(&999u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    match load_engine(&path, LoadMode::Verify) {
        Err(PersistError::UnknownSection(999)) => {}
        Err(other) => panic!("expected UnknownSection(999), got {other:?}"),
        Ok(_) => panic!("unknown section must not load"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn wrong_endian_magic_is_called_out() {
    let (mut bytes, path) = probe_snapshot("endian");
    bytes[0..4].copy_from_slice(b"NSSR"); // the magic, byte-swapped
    std::fs::write(&path, &bytes).unwrap();
    match load_engine(&path, LoadMode::Verify) {
        Err(
            e @ PersistError::BadMagic {
                byte_swapped: true, ..
            },
        ) => {
            let msg = e.to_string();
            assert!(msg.contains("endian"), "message must explain: {msg}");
        }
        Err(other) => panic!("expected byte-swapped BadMagic, got {other:?}"),
        Ok(_) => panic!("byte-swapped magic must not load"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn snapshot_ahead_of_its_wal_is_a_typed_mismatch() {
    let snap_path = temp_path("wal-mismatch");
    let wal_path = std::env::temp_dir().join(format!(
        "ranksim-persistcodec-wal-mismatch-{}.wal",
        std::process::id()
    ));
    // A snapshot claiming 9 logged mutations over an empty WAL: the
    // missing tail is unrecoverable and must be refused, not guessed.
    let engine = probe_engine(32, 5);
    save_engine(
        &snap_path,
        &engine,
        SnapshotMeta {
            log_pos: 9,
            wal_base: 0,
        },
    )
    .expect("save snapshot");
    drop(WalWriter::create(&wal_path, SyncPolicy::None).expect("create empty WAL"));
    match SnapshotEngine::recover_from_snapshot(
        &snap_path,
        &wal_path,
        SyncPolicy::None,
        LoadMode::Verify,
    ) {
        Err(PersistError::WalMismatch { detail }) => {
            assert!(detail.contains("0 valid records"), "detail: {detail}");
        }
        Err(other) => panic!("expected WalMismatch, got {other:?}"),
        Ok(_) => panic!("snapshot ahead of its WAL must not recover"),
    }
    let _ = std::fs::remove_file(&snap_path);
    let _ = std::fs::remove_file(&wal_path);
}

/// A snapshot whose recorded position *precedes* the WAL base points at
/// a WAL that was truncated past it; recovery must refuse it.
#[test]
fn snapshot_behind_the_wal_base_is_a_typed_mismatch() {
    let snap_path = temp_path("wal-behind");
    let wal_path = std::env::temp_dir().join(format!(
        "ranksim-persistcodec-wal-behind-{}.wal",
        std::process::id()
    ));
    let engine = probe_engine(32, 6);
    save_engine(
        &snap_path,
        &engine,
        SnapshotMeta {
            log_pos: 2,
            wal_base: 5,
        },
    )
    .expect("save snapshot");
    drop(WalWriter::create(&wal_path, SyncPolicy::None).expect("create empty WAL"));
    match SnapshotEngine::recover_from_snapshot(
        &snap_path,
        &wal_path,
        SyncPolicy::None,
        LoadMode::Verify,
    ) {
        Err(PersistError::WalMismatch { detail }) => {
            assert!(detail.contains("precedes"), "detail: {detail}");
        }
        Err(other) => panic!("expected WalMismatch, got {other:?}"),
        Ok(_) => panic!("snapshot behind the WAL base must not recover"),
    }
    let _ = std::fs::remove_file(&snap_path);
    let _ = std::fs::remove_file(&wal_path);
}
