//! Versioned zero-copy on-disk engine snapshots (the `RSSN` format).
//!
//! A snapshot captures a built [`Engine`]'s entire flat state — the
//! ranking store and slot lifecycle, the item remap, every CSR posting
//! arena, the coarse index tables, the planner's learned state and the
//! mutation overlay — so a restart *opens* the corpus instead of
//! rebuilding it. The paper's indexes are all flat
//! `Vec<u32>` planes, so the format is a thin container around them:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "RSSN"
//! 4       4     version (u32 LE)
//! 8       4     section count (u32 LE)
//! 12      4     reserved, must be zero
//! 16      32×n  section table: { tag u32 | zero u32 | offset u64 |
//!               len u64 | crc32 u32 | zero u32 }
//! ...           section payloads, each 8-byte aligned, zero-padded
//! ```
//!
//! Every scalar is little-endian and widened to 8 bytes; arrays are a
//! `u64` element count followed by the raw little-endian element bytes,
//! padded to 8. Because the section table tiles the file exactly (each
//! payload starts where the previous one's padding ends and the last
//! pad ends at EOF), every byte of a snapshot is covered by *some*
//! check: magic/version/reserved bytes by direct comparison, table
//! entries by the tiling rule, payloads by a per-section CRC-32 (the
//! WAL's polynomial), inter-section padding by a must-be-zero rule.
//! The corruption sweep in `tests/persist_codec.rs` flips every byte
//! and truncates at every length to prove a damaged file is a typed
//! [`PersistError`], never a panic and never a silently-wrong engine.
//!
//! **Zero-copy loads.** The reader pulls the file into one owned
//! 8-byte-aligned buffer and reinterprets each array's payload bytes
//! with an alignment-checked `align_to` cast — one `memcpy` per array,
//! no per-posting decode. If a slice ever lands misaligned the reader
//! falls back to a checked per-element copy instead of UB.
//!
//! **Verify vs trust.** [`LoadMode::Verify`] checks every section CRC
//! before decoding (the default everywhere durability matters);
//! [`LoadMode::Trust`] skips the CRC pass for callers that just wrote
//! the file themselves or sit behind a verified transport. Structural
//! bounds checks run in both modes — `Trust` is never allowed to read
//! out of bounds or build an invariant-violating engine.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::coarse::CoarseIndexParts;
use crate::engine::{Engine, EngineConfigParts, EnginePersistParts};
use crate::planner::PlannerSaved;
use crate::shard::{ShardConfigParts, ShardedEngine, ShardedPersistParts};
use crate::wal::{crc32, WalError};
use ranksim_adaptsearch::{AdaptCostParams, AdaptIndexParts};
use ranksim_invindex::{AugmentedIndexParts, BlockedIndexParts, PlainIndexParts};
use ranksim_metricspace::{BkTreeParts, PartitioningParts};
use ranksim_rankings::{RankingId, RemapParts, StoreParts};

/// File magic: "RSSN" (RankSim SNapshot).
pub const MAGIC: [u8; 4] = *b"RSSN";
/// Current container format version; every other version is refused
/// (v3 dropped the top-k tree section and its two build flags; v4
/// dropped the kernel tag and the planner refresh budget from the
/// engine META and the shard manifest; v5 dropped the posting-order tag
/// from META, the manifest and each index section, the rank planes of
/// the plain and AdaptSearch sections, the coarse sections'
/// `medoid_to_partition` and overlay-medoid arrays, and the planner's
/// skip-rate cells).
pub const FORMAT_VERSION: u32 = 5;

const HEADER_LEN: usize = 16;
const ENTRY_LEN: usize = 32;
/// Sanity bound on the section count (a real snapshot has ~12).
const MAX_SECTIONS: u32 = 4096;

const SEC_META: u32 = 1;
const SEC_STORE: u32 = 2;
const SEC_REMAP: u32 = 3;
const SEC_PLAIN: u32 = 4;
const SEC_AUGMENTED: u32 = 5;
const SEC_BLOCKED: u32 = 6;
const SEC_ADAPT: u32 = 7;
const SEC_COARSE: u32 = 8;
const SEC_COARSE_DROP: u32 = 9;
const SEC_PLANNER: u32 = 11;
const SEC_DELTA: u32 = 12;
/// Sharded-deployment manifest (directory, medoids, per-shard map).
const SEC_MANIFEST: u32 = 32;

fn section_name(tag: u32) -> Option<&'static str> {
    Some(match tag {
        SEC_META => "meta",
        SEC_STORE => "store",
        SEC_REMAP => "remap",
        SEC_PLAIN => "plain",
        SEC_AUGMENTED => "augmented",
        SEC_BLOCKED => "blocked",
        SEC_ADAPT => "adaptsearch",
        SEC_COARSE => "coarse",
        SEC_COARSE_DROP => "coarse-drop",
        SEC_PLANNER => "planner",
        SEC_DELTA => "delta",
        SEC_MANIFEST => "manifest",
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// Errors and load modes
// ---------------------------------------------------------------------

/// Why a snapshot could not be written or read back. Every reader
/// failure names the offending section so an operator can tell a
/// damaged posting arena from a torn header.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure (open, read, write, rename).
    Io(std::io::Error),
    /// The file does not start with the `RSSN` magic. `byte_swapped`
    /// is set when the bytes are the magic in reverse order — a file
    /// written by a hypothetical big-endian writer.
    BadMagic { found: [u8; 4], byte_swapped: bool },
    /// The container version is not the one this reader understands.
    UnsupportedVersion(u32),
    /// A section table entry carries a tag this reader does not know.
    UnknownSection(u32),
    /// The file ends before the named section's bytes do.
    Truncated { section: &'static str },
    /// The named section's payload does not match its recorded CRC-32.
    BadChecksum { section: &'static str },
    /// The named section decoded but violates a structural invariant.
    Corrupt {
        section: &'static str,
        detail: String,
    },
    /// A section the engine cannot be rebuilt without is absent.
    MissingSection { section: &'static str },
    /// The snapshot's recorded log position disagrees with the WAL it
    /// is being recovered against.
    WalMismatch { detail: String },
    /// The companion WAL failed while recovering from or checkpointing
    /// a snapshot (scan error, replay divergence, writer failure).
    Wal(WalError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot io error: {e}"),
            PersistError::BadMagic {
                found,
                byte_swapped,
            } => {
                if *byte_swapped {
                    write!(
                        f,
                        "bad snapshot magic {found:?}: byte-swapped RSSN \
                         (wrong-endian writer; snapshots are little-endian)"
                    )
                } else {
                    write!(f, "bad snapshot magic {found:?} (expected RSSN)")
                }
            }
            PersistError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (reader supports {FORMAT_VERSION})"
                )
            }
            PersistError::UnknownSection(tag) => {
                write!(f, "unknown snapshot section tag {tag:#x}")
            }
            PersistError::Truncated { section } => {
                write!(f, "snapshot truncated inside section `{section}`")
            }
            PersistError::BadChecksum { section } => {
                write!(f, "checksum mismatch in section `{section}`")
            }
            PersistError::Corrupt { section, detail } => {
                write!(f, "corrupt section `{section}`: {detail}")
            }
            PersistError::MissingSection { section } => {
                write!(f, "snapshot is missing required section `{section}`")
            }
            PersistError::WalMismatch { detail } => {
                write!(f, "snapshot/WAL position mismatch: {detail}")
            }
            PersistError::Wal(e) => write!(f, "companion WAL error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<WalError> for PersistError {
    fn from(e: WalError) -> Self {
        PersistError::Wal(e)
    }
}

/// How much a load pays for integrity (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Check every section's CRC-32 before decoding it. The default.
    Verify,
    /// Skip the CRC pass. Structural bounds checks still run; a
    /// damaged file still fails with a typed error, but a bit flip
    /// that survives the structural checks is not detected.
    Trust,
}

/// The durability coordinates a snapshot records: queries against the
/// loaded engine are bit-identical to a monolith that applied exactly
/// the first `log_pos` logged mutations, and the WAL to replay on top
/// starts at absolute position `wal_base`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Absolute mutation-log position folded into the snapshot.
    pub log_pos: u64,
    /// Absolute log position of the companion WAL's first record.
    pub wal_base: u64,
}

// ---------------------------------------------------------------------
// Encode primitives
// ---------------------------------------------------------------------

fn pad8(out: &mut Vec<u8>) {
    while out.len() % 8 != 0 {
        out.push(0);
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Scalars are uniformly widened to 8 bytes so array payloads always
/// start 8-byte aligned (the zero-copy cast's fast path).
fn put_u32w(out: &mut Vec<u8>, v: u32) {
    put_u64(out, v as u64);
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    put_u64(out, v as u64);
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_u32_arr(out: &mut Vec<u8>, arr: &[u32]) {
    put_u64(out, arr.len() as u64);
    if cfg!(target_endian = "little") {
        // SAFETY: u32 has no padding and u8 has alignment 1, so a
        // u32 slice is always valid to view as raw bytes; on a
        // little-endian target those bytes are the wire format.
        let bytes = unsafe { std::slice::from_raw_parts(arr.as_ptr().cast::<u8>(), arr.len() * 4) };
        out.extend_from_slice(bytes);
    } else {
        for &v in arr {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    pad8(out);
}

fn put_u64_arr(out: &mut Vec<u8>, arr: &[u64]) {
    put_u64(out, arr.len() as u64);
    if cfg!(target_endian = "little") {
        // SAFETY: as in `put_u32_arr`.
        let bytes = unsafe { std::slice::from_raw_parts(arr.as_ptr().cast::<u8>(), arr.len() * 8) };
        out.extend_from_slice(bytes);
    } else {
        for &v in arr {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    pad8(out);
}

fn put_u8_arr(out: &mut Vec<u8>, arr: &[u8]) {
    put_u64(out, arr.len() as u64);
    out.extend_from_slice(arr);
    pad8(out);
}

fn put_f64_arr(out: &mut Vec<u8>, arr: &[f64]) {
    put_u64(out, arr.len() as u64);
    for &v in arr {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    pad8(out);
}

// ---------------------------------------------------------------------
// Decode primitives
// ---------------------------------------------------------------------

/// Reinterprets payload bytes as `u32`s: one `memcpy` when the slice
/// is aligned (the owned buffer is 8-byte aligned and every array
/// payload starts on an 8-byte boundary), a checked per-element copy
/// otherwise — never UB on a hostile file.
fn cast_u32s(bytes: &[u8]) -> Vec<u32> {
    debug_assert_eq!(bytes.len() % 4, 0);
    // SAFETY: every bit pattern is a valid u32.
    let (pre, mid, suf) = unsafe { bytes.align_to::<u32>() };
    if pre.is_empty() && suf.is_empty() && cfg!(target_endian = "little") {
        mid.to_vec()
    } else {
        bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }
}

fn cast_u64s(bytes: &[u8]) -> Vec<u64> {
    debug_assert_eq!(bytes.len() % 8, 0);
    // SAFETY: every bit pattern is a valid u64.
    let (pre, mid, suf) = unsafe { bytes.align_to::<u64>() };
    if pre.is_empty() && suf.is_empty() && cfg!(target_endian = "little") {
        mid.to_vec()
    } else {
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }
}

/// A bounds-checked cursor over one section's payload. Every failure
/// is a typed error naming the section.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8], section: &'static str) -> Self {
        Cur {
            buf,
            pos: 0,
            section,
        }
    }

    fn corrupt(&self, detail: impl Into<String>) -> PersistError {
        PersistError::Corrupt {
            section: self.section,
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(PersistError::Truncated {
                section: self.section,
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn u32w(&mut self) -> Result<u32, PersistError> {
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| self.corrupt(format!("scalar {v} overflows u32")))
    }

    fn boolean(&mut self) -> Result<bool, PersistError> {
        match self.u64()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(self.corrupt(format!("boolean flag holds {v}"))),
        }
    }

    fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn skip_pad(&mut self) -> Result<(), PersistError> {
        let rem = self.pos % 8;
        if rem != 0 {
            let pad = self.take(8 - rem)?;
            if pad.iter().any(|&b| b != 0) {
                return Err(self.corrupt("nonzero padding bytes"));
            }
        }
        Ok(())
    }

    fn arr_bytes(&mut self, elem: usize) -> Result<&'a [u8], PersistError> {
        let count = self.u64()? as usize;
        let nbytes = count
            .checked_mul(elem)
            .filter(|&n| n <= self.buf.len())
            .ok_or_else(|| self.corrupt(format!("array count {count} overflows the section")))?;
        let bytes = self.take(nbytes)?;
        self.skip_pad()?;
        Ok(bytes)
    }

    fn u32_arr(&mut self) -> Result<Vec<u32>, PersistError> {
        Ok(cast_u32s(self.arr_bytes(4)?))
    }

    fn u64_arr(&mut self) -> Result<Vec<u64>, PersistError> {
        Ok(cast_u64s(self.arr_bytes(8)?))
    }

    fn u8_arr(&mut self) -> Result<Vec<u8>, PersistError> {
        Ok(self.arr_bytes(1)?.to_vec())
    }

    fn f64_arr(&mut self) -> Result<Vec<f64>, PersistError> {
        Ok(cast_u64s(self.arr_bytes(8)?)
            .into_iter()
            .map(f64::from_bits)
            .collect())
    }

    /// The whole payload must be consumed: CRC-valid trailing bytes
    /// would mean the reader and writer disagree about the layout.
    fn finish(self) -> Result<(), PersistError> {
        if self.pos != self.buf.len() {
            return Err(self.corrupt(format!(
                "{} trailing bytes after the decoded payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Container assembly and parsing
// ---------------------------------------------------------------------

fn pad8_len(len: u64) -> u64 {
    len.div_ceil(8) * 8
}

fn assemble(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let table_end = HEADER_LEN + sections.len() * ENTRY_LEN;
    let total: u64 = table_end as u64
        + sections
            .iter()
            .map(|(_, p)| pad8_len(p.len() as u64))
            .sum::<u64>();
    let mut out = Vec::with_capacity(total as usize);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]);
    let mut offset = table_end as u64;
    for (tag, payload) in sections {
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&[0u8; 4]);
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(&[0u8; 4]);
        offset += pad8_len(payload.len() as u64);
    }
    for (_, payload) in sections {
        out.extend_from_slice(payload);
        pad8(&mut out);
    }
    debug_assert_eq!(out.len() as u64, total);
    out
}

fn temp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes the assembled container crash-safely: temp sibling, fsync,
/// atomic rename, best-effort directory sync. Returns bytes written.
fn write_container(path: &Path, sections: &[(u32, Vec<u8>)]) -> Result<u64, PersistError> {
    let bytes = assemble(sections);
    let tmp = temp_sibling(path);
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    Ok(bytes.len() as u64)
}

/// One owned, 8-byte-aligned copy of the file — the buffer all
/// zero-copy casts point into. `Vec<u8>` only guarantees alignment 1,
/// so the storage is a `Vec<u64>` viewed as bytes.
struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    fn bytes(&self) -> &[u8] {
        // SAFETY: the words allocation covers at least `len` bytes
        // (len <= words.len() * 8) and u8 views of u64 storage are
        // always valid.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

fn read_aligned(path: &Path) -> Result<AlignedBuf, PersistError> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len() as usize;
    let mut words = vec![0u64; len.div_ceil(8)];
    {
        // SAFETY: the allocation holds words.len()*8 >= len bytes and
        // any byte pattern is a valid u64.
        let bytes = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), len) };
        file.read_exact(bytes)?;
    }
    Ok(AlignedBuf { words, len })
}

/// Parses the header and section table, enforcing the tiling rule
/// described in the module docs. In [`LoadMode::Verify`] every
/// section's CRC is checked here, before any payload is decoded.
fn parse_sections<'a>(buf: &'a [u8], mode: LoadMode) -> Result<Vec<(u32, &'a [u8])>, PersistError> {
    if buf.len() < HEADER_LEN {
        return Err(PersistError::Truncated { section: "header" });
    }
    let magic: [u8; 4] = buf[..4].try_into().unwrap();
    if magic != MAGIC {
        let mut swapped = MAGIC;
        swapped.reverse();
        return Err(PersistError::BadMagic {
            found: magic,
            byte_swapped: magic == swapped,
        });
    }
    let version = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let count = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    if buf[12..16] != [0u8; 4] {
        return Err(PersistError::Corrupt {
            section: "header",
            detail: "nonzero reserved bytes".to_string(),
        });
    }
    if count > MAX_SECTIONS {
        return Err(PersistError::Corrupt {
            section: "header",
            detail: format!("section count {count} exceeds the {MAX_SECTIONS} sanity bound"),
        });
    }
    let count = count as usize;
    let table_end = HEADER_LEN + count * ENTRY_LEN;
    if buf.len() < table_end {
        return Err(PersistError::Truncated {
            section: "section table",
        });
    }
    let mut entries = Vec::with_capacity(count);
    let mut seen: Vec<u32> = Vec::with_capacity(count);
    let mut expected = table_end as u64;
    for i in 0..count {
        let e = &buf[HEADER_LEN + i * ENTRY_LEN..][..ENTRY_LEN];
        let tag = u32::from_le_bytes(e[0..4].try_into().unwrap());
        let name = section_name(tag).ok_or(PersistError::UnknownSection(tag))?;
        let corrupt = |detail: String| PersistError::Corrupt {
            section: name,
            detail,
        };
        if e[4..8] != [0u8; 4] || e[28..32] != [0u8; 4] {
            return Err(corrupt(
                "nonzero reserved bytes in section entry".to_string(),
            ));
        }
        if seen.contains(&tag) {
            return Err(corrupt("duplicate section".to_string()));
        }
        seen.push(tag);
        let offset = u64::from_le_bytes(e[8..16].try_into().unwrap());
        let len = u64::from_le_bytes(e[16..24].try_into().unwrap());
        let crc = u32::from_le_bytes(e[24..28].try_into().unwrap());
        if offset != expected {
            return Err(corrupt(format!(
                "section offset {offset} does not tile (expected {expected})"
            )));
        }
        let end = offset
            .checked_add(len)
            .ok_or_else(|| corrupt(format!("section length {len} overflows")))?;
        let padded_end = pad8_len(end);
        if padded_end > buf.len() as u64 {
            return Err(PersistError::Truncated { section: name });
        }
        if buf[end as usize..padded_end as usize]
            .iter()
            .any(|&b| b != 0)
        {
            return Err(corrupt("nonzero padding after section payload".to_string()));
        }
        expected = padded_end;
        let payload = &buf[offset as usize..end as usize];
        if mode == LoadMode::Verify && crc32(payload) != crc {
            return Err(PersistError::BadChecksum { section: name });
        }
        entries.push((tag, payload));
    }
    if expected != buf.len() as u64 {
        return Err(PersistError::Corrupt {
            section: "container",
            detail: format!(
                "file length {} does not match the section table end {expected}",
                buf.len()
            ),
        });
    }
    Ok(entries)
}

// ---------------------------------------------------------------------
// Section codecs
// ---------------------------------------------------------------------

fn enc_meta(meta: SnapshotMeta, cfg: &EngineConfigParts) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, meta.log_pos);
    put_u64(&mut out, meta.wal_base);
    put_f64(&mut out, cfg.coarse_theta_c);
    put_bool(&mut out, cfg.coarse_theta_c_drop.is_some());
    put_f64(&mut out, cfg.coarse_theta_c_drop.unwrap_or(0.0));
    put_bool(&mut out, cfg.selected.is_some());
    put_u32_arr(&mut out, cfg.selected.as_deref().unwrap_or(&[]));
    put_bool(&mut out, cfg.calibrated.is_some());
    let (ca, cb) = cfg.calibrated.unwrap_or((0.0, 0.0));
    put_f64(&mut out, ca);
    put_f64(&mut out, cb);
    put_f64(&mut out, cfg.compact_tombstone_fraction);
    out
}

fn dec_meta(payload: &[u8]) -> Result<(SnapshotMeta, EngineConfigParts), PersistError> {
    let mut c = Cur::new(payload, "meta");
    let meta = SnapshotMeta {
        log_pos: c.u64()?,
        wal_base: c.u64()?,
    };
    let coarse_theta_c = c.f64()?;
    let has_drop = c.boolean()?;
    let drop_theta = c.f64()?;
    let has_selected = c.boolean()?;
    let selected = c.u32_arr()?;
    let has_calibrated = c.boolean()?;
    let ca = c.f64()?;
    let cb = c.f64()?;
    let compact_tombstone_fraction = c.f64()?;
    c.finish()?;
    Ok((
        meta,
        EngineConfigParts {
            coarse_theta_c,
            coarse_theta_c_drop: has_drop.then_some(drop_theta),
            selected: has_selected.then_some(selected),
            calibrated: has_calibrated.then_some((ca, cb)),
            compact_tombstone_fraction,
        },
    ))
}

fn enc_store(p: &StoreParts) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32w(&mut out, p.k);
    put_u32_arr(&mut out, &p.items);
    put_u32_arr(&mut out, &p.sorted_items);
    put_u32_arr(&mut out, &p.sorted_ranks);
    put_u8_arr(&mut out, &p.slots);
    out
}

fn dec_store(payload: &[u8]) -> Result<StoreParts, PersistError> {
    let mut c = Cur::new(payload, "store");
    let p = StoreParts {
        k: c.u32w()?,
        items: c.u32_arr()?,
        sorted_items: c.u32_arr()?,
        sorted_ranks: c.u32_arr()?,
        slots: c.u8_arr()?,
    };
    c.finish()?;
    Ok(p)
}

fn enc_remap(p: &RemapParts) -> Vec<u8> {
    let mut out = Vec::new();
    put_bool(&mut out, p.hashed);
    put_u32w(&mut out, p.len);
    put_u32_arr(&mut out, &p.keys);
    put_u32_arr(&mut out, &p.values);
    out
}

fn dec_remap(payload: &[u8]) -> Result<RemapParts, PersistError> {
    let mut c = Cur::new(payload, "remap");
    let p = RemapParts {
        hashed: c.boolean()?,
        len: c.u32w()?,
        keys: c.u32_arr()?,
        values: c.u32_arr()?,
    };
    c.finish()?;
    Ok(p)
}

fn enc_plain(p: &PlainIndexParts) -> Vec<u8> {
    let mut out = Vec::new();
    enc_plain_into(&mut out, p);
    out
}

fn enc_plain_into(out: &mut Vec<u8>, p: &PlainIndexParts) {
    put_u32w(out, p.k);
    put_u32w(out, p.indexed);
    put_u32_arr(out, &p.offsets);
    put_u32_arr(out, &p.postings);
}

fn dec_plain_from(c: &mut Cur<'_>) -> Result<PlainIndexParts, PersistError> {
    Ok(PlainIndexParts {
        k: c.u32w()?,
        indexed: c.u32w()?,
        offsets: c.u32_arr()?,
        postings: c.u32_arr()?,
    })
}

fn dec_plain(payload: &[u8]) -> Result<PlainIndexParts, PersistError> {
    let mut c = Cur::new(payload, "plain");
    let p = dec_plain_from(&mut c)?;
    c.finish()?;
    Ok(p)
}

fn enc_augmented(p: &AugmentedIndexParts) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32w(&mut out, p.k);
    put_u32w(&mut out, p.indexed);
    put_u32_arr(&mut out, &p.offsets);
    put_u32_arr(&mut out, &p.ids);
    put_u32_arr(&mut out, &p.ranks);
    out
}

fn dec_augmented(payload: &[u8]) -> Result<AugmentedIndexParts, PersistError> {
    let mut c = Cur::new(payload, "augmented");
    let p = AugmentedIndexParts {
        k: c.u32w()?,
        indexed: c.u32w()?,
        offsets: c.u32_arr()?,
        ids: c.u32_arr()?,
        ranks: c.u32_arr()?,
    };
    c.finish()?;
    Ok(p)
}

fn enc_blocked(p: &BlockedIndexParts) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32w(&mut out, p.k);
    put_u32w(&mut out, p.indexed);
    put_u32_arr(&mut out, &p.block_offsets);
    put_u32_arr(&mut out, &p.ids);
    out
}

fn dec_blocked(payload: &[u8]) -> Result<BlockedIndexParts, PersistError> {
    let mut c = Cur::new(payload, "blocked");
    let p = BlockedIndexParts {
        k: c.u32w()?,
        indexed: c.u32w()?,
        block_offsets: c.u32_arr()?,
        ids: c.u32_arr()?,
    };
    c.finish()?;
    Ok(p)
}

fn enc_adapt(p: &AdaptIndexParts) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32w(&mut out, p.k);
    put_u32w(&mut out, p.indexed);
    put_f64(&mut out, p.params.posting_cost);
    put_f64(&mut out, p.params.candidate_cost);
    put_u32_arr(&mut out, &p.freq);
    put_u32_arr(&mut out, &p.pos_offsets);
    put_u32_arr(&mut out, &p.ids);
    out
}

fn dec_adapt(payload: &[u8]) -> Result<AdaptIndexParts, PersistError> {
    let mut c = Cur::new(payload, "adaptsearch");
    let k = c.u32w()?;
    let indexed = c.u32w()?;
    let params = AdaptCostParams {
        posting_cost: c.f64()?,
        candidate_cost: c.f64()?,
    };
    let p = AdaptIndexParts {
        k,
        indexed,
        params,
        freq: c.u32_arr()?,
        pos_offsets: c.u32_arr()?,
        ids: c.u32_arr()?,
    };
    c.finish()?;
    Ok(p)
}

fn enc_bktree_into(out: &mut Vec<u8>, p: &BkTreeParts) {
    put_u32_arr(out, &p.rankings);
    put_u32_arr(out, &p.subtree_sizes);
    put_u32_arr(out, &p.child_offsets);
    put_u32_arr(out, &p.child_edges);
    put_u32_arr(out, &p.child_targets);
}

fn dec_bktree_from(c: &mut Cur<'_>) -> Result<BkTreeParts, PersistError> {
    Ok(BkTreeParts {
        rankings: c.u32_arr()?,
        subtree_sizes: c.u32_arr()?,
        child_offsets: c.u32_arr()?,
        child_edges: c.u32_arr()?,
        child_targets: c.u32_arr()?,
    })
}

const EMPTY_BKTREE: BkTreeParts = BkTreeParts {
    rankings: Vec::new(),
    subtree_sizes: Vec::new(),
    child_offsets: Vec::new(),
    child_edges: Vec::new(),
    child_targets: Vec::new(),
};

fn enc_partitioning_into(out: &mut Vec<u8>, p: &PartitioningParts) {
    put_u32w(out, p.theta_c_raw);
    put_bool(out, p.arena.is_some());
    enc_bktree_into(out, p.arena.as_ref().unwrap_or(&EMPTY_BKTREE));
    put_u32_arr(out, &p.medoids);
    put_u32_arr(out, &p.sizes);
    put_u32_arr(out, &p.medoid_nodes);
    put_u32_arr(out, &p.root_offsets);
    put_u32_arr(out, &p.roots);
    put_u64(out, p.trees.len() as u64);
    for t in &p.trees {
        enc_bktree_into(out, t);
    }
}

fn dec_partitioning_from(c: &mut Cur<'_>) -> Result<PartitioningParts, PersistError> {
    let theta_c_raw = c.u32w()?;
    let has_arena = c.boolean()?;
    let arena = dec_bktree_from(c)?;
    let medoids = c.u32_arr()?;
    let sizes = c.u32_arr()?;
    let medoid_nodes = c.u32_arr()?;
    let root_offsets = c.u32_arr()?;
    let roots = c.u32_arr()?;
    let ntrees = c.u64()? as usize;
    if ntrees > c.buf.len() {
        return Err(c.corrupt(format!(
            "partitioning tree count {ntrees} overflows the section"
        )));
    }
    let mut trees = Vec::with_capacity(ntrees);
    for _ in 0..ntrees {
        trees.push(dec_bktree_from(c)?);
    }
    Ok(PartitioningParts {
        theta_c_raw,
        arena: has_arena.then_some(arena),
        medoids,
        sizes,
        medoid_nodes,
        root_offsets,
        roots,
        trees,
    })
}

fn enc_coarse(p: &CoarseIndexParts) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32w(&mut out, p.theta_c_raw);
    enc_partitioning_into(&mut out, &p.partitioning);
    enc_plain_into(&mut out, &p.medoid_index);
    out
}

fn dec_coarse(payload: &[u8], section: &'static str) -> Result<CoarseIndexParts, PersistError> {
    let mut c = Cur::new(payload, section);
    let p = CoarseIndexParts {
        theta_c_raw: c.u32w()?,
        partitioning: dec_partitioning_from(&mut c)?,
        medoid_index: dec_plain_from(&mut c)?,
    };
    c.finish()?;
    Ok(p)
}

fn enc_planner(p: &PlannerSaved) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, p.n);
    put_u32w(&mut out, p.k);
    put_u32w(&mut out, p.d_max);
    put_f64(&mut out, p.footrule_ns);
    put_f64(&mut out, p.merge_posting_ns);
    put_f64(&mut out, p.zipf_s);
    put_bool(&mut out, p.degenerate);
    put_u32w(&mut out, p.coarse_theta_c_raw);
    put_u32w(&mut out, p.coarse_drop_theta_c_raw);
    put_u64(&mut out, p.pending_mutations);
    put_u32_arr(&mut out, &p.candidates);
    put_u32_arr(&mut out, &p.freqs);
    put_f64_arr(&mut out, &p.cdf_prefix);
    put_f64_arr(&mut out, &p.coarse_cost);
    put_f64_arr(&mut out, &p.coarse_drop_cost);
    put_u64_arr(&mut out, &p.wall_means);
    put_u64_arr(&mut out, &p.raw_means);
    put_u64_arr(&mut out, &p.observations);
    put_u64_arr(&mut out, &p.explored);
    put_u64_arr(&mut out, &p.incumbent);
    put_u64_arr(&mut out, &p.pruned_rates);
    out
}

fn dec_planner(payload: &[u8]) -> Result<PlannerSaved, PersistError> {
    let mut c = Cur::new(payload, "planner");
    let p = PlannerSaved {
        n: c.u64()?,
        k: c.u32w()?,
        d_max: c.u32w()?,
        footrule_ns: c.f64()?,
        merge_posting_ns: c.f64()?,
        zipf_s: c.f64()?,
        degenerate: c.boolean()?,
        coarse_theta_c_raw: c.u32w()?,
        coarse_drop_theta_c_raw: c.u32w()?,
        pending_mutations: c.u64()?,
        candidates: c.u32_arr()?,
        freqs: c.u32_arr()?,
        cdf_prefix: c.f64_arr()?,
        coarse_cost: c.f64_arr()?,
        coarse_drop_cost: c.f64_arr()?,
        wall_means: c.u64_arr()?,
        raw_means: c.u64_arr()?,
        observations: c.u64_arr()?,
        explored: c.u64_arr()?,
        incumbent: c.u64_arr()?,
        pruned_rates: c.u64_arr()?,
    };
    c.finish()?;
    Ok(p)
}

fn enc_delta(p: &EnginePersistParts) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32_arr(&mut out, &p.delta);
    put_u32_arr(&mut out, &p.delta_pos);
    put_u64(&mut out, p.base_dead);
    put_u64(&mut out, p.base_live_at_build);
    out
}

fn dec_delta(payload: &[u8]) -> Result<(Vec<u32>, Vec<u32>, u64, u64), PersistError> {
    let mut c = Cur::new(payload, "delta");
    let delta = c.u32_arr()?;
    let delta_pos = c.u32_arr()?;
    let base_dead = c.u64()?;
    let base_live_at_build = c.u64()?;
    c.finish()?;
    Ok((delta, delta_pos, base_dead, base_live_at_build))
}

// ---------------------------------------------------------------------
// Public API: monolith engines
// ---------------------------------------------------------------------

/// Writes `engine`'s full state to `path` as one `RSSN` snapshot,
/// recording `meta`'s durability coordinates. The write is crash-safe
/// (temp sibling + fsync + atomic rename). Returns bytes written.
pub fn save_engine(path: &Path, engine: &Engine, meta: SnapshotMeta) -> Result<u64, PersistError> {
    let parts = engine.export_persist_parts();
    write_container(path, &engine_sections(&parts, meta))
}

fn engine_sections(parts: &EnginePersistParts, meta: SnapshotMeta) -> Vec<(u32, Vec<u8>)> {
    let mut sections: Vec<(u32, Vec<u8>)> = Vec::with_capacity(12);
    sections.push((SEC_META, enc_meta(meta, &parts.config)));
    sections.push((SEC_STORE, enc_store(&parts.store)));
    sections.push((SEC_REMAP, enc_remap(&parts.remap)));
    if let Some(p) = &parts.plain {
        sections.push((SEC_PLAIN, enc_plain(p)));
    }
    if let Some(p) = &parts.augmented {
        sections.push((SEC_AUGMENTED, enc_augmented(p)));
    }
    if let Some(p) = &parts.blocked {
        sections.push((SEC_BLOCKED, enc_blocked(p)));
    }
    if let Some(p) = &parts.adapt {
        sections.push((SEC_ADAPT, enc_adapt(p)));
    }
    if let Some(p) = &parts.coarse {
        sections.push((SEC_COARSE, enc_coarse(p)));
    }
    if let Some(p) = &parts.coarse_drop {
        sections.push((SEC_COARSE_DROP, enc_coarse(p)));
    }
    if let Some(p) = &parts.planner {
        sections.push((SEC_PLANNER, enc_planner(p)));
    }
    sections.push((SEC_DELTA, enc_delta(parts)));
    sections
}

/// Opens the snapshot at `path` and rebuilds the engine, without
/// re-deriving a single posting: every array is one bounds-checked
/// cast-and-copy out of the file buffer. Returns the engine plus the
/// durability coordinates it was saved at.
pub fn load_engine(path: &Path, mode: LoadMode) -> Result<(Engine, SnapshotMeta), PersistError> {
    let buf = read_aligned(path)?;
    decode_engine(buf.bytes(), mode)
}

fn decode_engine(bytes: &[u8], mode: LoadMode) -> Result<(Engine, SnapshotMeta), PersistError> {
    let sections = parse_sections(bytes, mode)?;
    let get = |tag: u32| sections.iter().find(|(t, _)| *t == tag).map(|(_, p)| *p);
    let require = |tag: u32, name: &'static str| {
        get(tag).ok_or(PersistError::MissingSection { section: name })
    };
    let (meta, config) = dec_meta(require(SEC_META, "meta")?)?;
    let store = dec_store(require(SEC_STORE, "store")?)?;
    let remap = dec_remap(require(SEC_REMAP, "remap")?)?;
    let (delta, delta_pos, base_dead, base_live_at_build) =
        dec_delta(require(SEC_DELTA, "delta")?)?;
    let parts = EnginePersistParts {
        store,
        remap,
        config,
        plain: get(SEC_PLAIN).map(dec_plain).transpose()?,
        augmented: get(SEC_AUGMENTED).map(dec_augmented).transpose()?,
        blocked: get(SEC_BLOCKED).map(dec_blocked).transpose()?,
        adapt: get(SEC_ADAPT).map(dec_adapt).transpose()?,
        coarse: get(SEC_COARSE)
            .map(|p| dec_coarse(p, "coarse"))
            .transpose()?,
        coarse_drop: get(SEC_COARSE_DROP)
            .map(|p| dec_coarse(p, "coarse-drop"))
            .transpose()?,
        planner: get(SEC_PLANNER).map(dec_planner).transpose()?,
        delta,
        delta_pos,
        base_dead,
        base_live_at_build,
    };
    let engine = Engine::from_persist_parts(parts).map_err(|detail| PersistError::Corrupt {
        section: "engine",
        detail,
    })?;
    Ok((engine, meta))
}

// ---------------------------------------------------------------------
// Public API: sharded engines
// ---------------------------------------------------------------------

fn enc_manifest(p: &ShardedPersistParts) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32w(&mut out, p.k);
    put_u64(&mut out, p.strategy as u64);
    let cfg = &p.config;
    put_f64(&mut out, cfg.coarse_theta_c);
    put_bool(&mut out, cfg.coarse_theta_c_drop.is_some());
    put_f64(&mut out, cfg.coarse_theta_c_drop.unwrap_or(0.0));
    put_bool(&mut out, cfg.selected.is_some());
    put_u32_arr(&mut out, cfg.selected.as_deref().unwrap_or(&[]));
    put_bool(&mut out, cfg.calibrated.is_some());
    let (ca, cb) = cfg.calibrated.unwrap_or((0.0, 0.0));
    put_f64(&mut out, ca);
    put_f64(&mut out, cb);
    put_bool(&mut out, cfg.compact_tombstone_fraction.is_some());
    put_f64(&mut out, cfg.compact_tombstone_fraction.unwrap_or(0.0));
    put_f64(&mut out, cfg.rebalance_skew_factor);
    put_u64(&mut out, cfg.rebalance_min_gap);
    put_bool(&mut out, cfg.rebalance_auto);
    put_u32w(&mut out, p.next_global);
    put_u32_arr(&mut out, &p.dir_shards);
    put_u32_arr(&mut out, &p.dir_locals);
    put_u64(&mut out, p.globals.len() as u64);
    for si in 0..p.globals.len() {
        put_bool(&mut out, p.engine_present[si]);
        put_bool(&mut out, p.medoids[si].is_some());
        put_u32_arr(&mut out, p.medoids[si].as_deref().unwrap_or(&[]));
        put_u32_arr(&mut out, &p.globals[si]);
    }
    out
}

fn dec_manifest(payload: &[u8]) -> Result<ShardedPersistParts, PersistError> {
    let mut c = Cur::new(payload, "manifest");
    let k = c.u32w()?;
    let strategy = match c.u64()? {
        s @ 0..=1 => s as u8,
        s => return Err(c.corrupt(format!("unknown shard strategy {s}"))),
    };
    let coarse_theta_c = c.f64()?;
    let has_drop = c.boolean()?;
    let drop_theta = c.f64()?;
    let has_selected = c.boolean()?;
    let selected = c.u32_arr()?;
    let has_calibrated = c.boolean()?;
    let ca = c.f64()?;
    let cb = c.f64()?;
    let has_compact = c.boolean()?;
    let compact = c.f64()?;
    let rebalance_skew_factor = c.f64()?;
    let rebalance_min_gap = c.u64()?;
    let rebalance_auto = c.boolean()?;
    let next_global = c.u32w()?;
    let dir_shards = c.u32_arr()?;
    let dir_locals = c.u32_arr()?;
    let num_shards = c.u64()? as usize;
    if num_shards > c.buf.len() {
        return Err(c.corrupt(format!("shard count {num_shards} overflows the section")));
    }
    let mut engine_present = Vec::with_capacity(num_shards);
    let mut medoids = Vec::with_capacity(num_shards);
    let mut globals = Vec::with_capacity(num_shards);
    for _ in 0..num_shards {
        engine_present.push(c.boolean()?);
        let has_medoid = c.boolean()?;
        let medoid = c.u32_arr()?;
        medoids.push(has_medoid.then_some(medoid));
        globals.push(c.u32_arr()?);
    }
    c.finish()?;
    Ok(ShardedPersistParts {
        k,
        strategy,
        config: ShardConfigParts {
            coarse_theta_c,
            coarse_theta_c_drop: has_drop.then_some(drop_theta),
            selected: has_selected.then_some(selected),
            calibrated: has_calibrated.then_some((ca, cb)),
            compact_tombstone_fraction: has_compact.then_some(compact),
            rebalance_skew_factor,
            rebalance_min_gap,
            rebalance_auto,
        },
        medoids,
        dir_shards,
        dir_locals,
        next_global,
        engine_present,
        globals,
    })
}

fn shard_file(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard-{i}.rssn"))
}

/// The manifest file inside a sharded snapshot directory.
pub fn manifest_file(dir: &Path) -> PathBuf {
    dir.join("manifest.rssn")
}

/// Writes a sharded engine as a snapshot **directory**: one
/// `shard-{i}.rssn` per non-empty shard plus a `manifest.rssn` tying
/// them together (routing state, directory planes, per-shard global
/// maps). The manifest is written last, so a crash mid-save leaves the
/// previous manifest pointing at the previous (still intact) shard
/// files. Returns total bytes written.
pub fn save_sharded(dir: &Path, sharded: &ShardedEngine) -> Result<u64, PersistError> {
    std::fs::create_dir_all(dir)?;
    let parts = sharded.export_sharded_parts();
    let mut total = 0u64;
    for (i, present) in parts.engine_present.iter().enumerate() {
        if !present {
            continue;
        }
        let engine = sharded
            .shard_engine(i)
            .expect("presence flags mirror shard engines");
        let shard_parts = engine.export_persist_parts();
        total += write_container(
            &shard_file(dir, i),
            &engine_sections(&shard_parts, SnapshotMeta::default()),
        )?;
    }
    total += write_container(&manifest_file(dir), &[(SEC_MANIFEST, enc_manifest(&parts))])?;
    Ok(total)
}

/// Opens a sharded snapshot directory written by [`save_sharded`]:
/// loads the manifest, loads every shard file it names under `mode`,
/// and reassembles the engine with full cross-file invariant checks.
pub fn load_sharded(dir: &Path, mode: LoadMode) -> Result<ShardedEngine, PersistError> {
    let buf = read_aligned(&manifest_file(dir))?;
    let sections = parse_sections(buf.bytes(), mode)?;
    let payload = sections
        .iter()
        .find(|(t, _)| *t == SEC_MANIFEST)
        .map(|(_, p)| *p)
        .ok_or(PersistError::MissingSection {
            section: "manifest",
        })?;
    let parts = dec_manifest(payload)?;
    let mut engines = Vec::with_capacity(parts.engine_present.len());
    for (i, present) in parts.engine_present.iter().enumerate() {
        engines.push(if *present {
            let (engine, _) = load_engine(&shard_file(dir, i), mode)?;
            Some(engine)
        } else {
            None
        });
    }
    ShardedEngine::from_sharded_parts(parts, engines).map_err(|detail| PersistError::Corrupt {
        section: "manifest",
        detail,
    })
}

/// The router-facing view of a sharded snapshot directory: everything a
/// process that fans queries out to **per-shard worker processes** needs
/// without loading any shard engine into its own address space — the
/// per-shard snapshot paths to spawn workers from, and the local→global
/// ranking-id maps to translate worker answers through.
#[derive(Debug, Clone)]
pub struct ShardedManifest {
    /// The ranking size every shard serves.
    pub k: usize,
    /// Configured shard count (including empty shards).
    pub num_shards: usize,
    /// Which shards hold rankings (and thus a snapshot file + worker).
    pub engine_present: Vec<bool>,
    /// Per shard: the global id of each local slot, ascending — the
    /// translation a router applies to worker-local result ids.
    pub globals: Vec<Vec<RankingId>>,
}

impl ShardedManifest {
    /// Total rankings across all shards.
    pub fn len(&self) -> usize {
        self.globals.iter().map(Vec::len).sum()
    }

    /// Whether the snapshot holds no rankings.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The snapshot file of shard `i` inside a sharded snapshot directory
/// (what [`save_sharded`] wrote and a shard worker process loads).
pub fn shard_snapshot_file(dir: &Path, i: usize) -> PathBuf {
    shard_file(dir, i)
}

/// Reads **only the manifest** of a sharded snapshot directory written
/// by [`save_sharded`]: the cheap, engine-free open a distributed
/// router performs before spawning one worker process per present
/// shard (each worker then loads its own `shard-{i}.rssn` via
/// [`load_engine`]). The manifest section's CRC is always verified —
/// it is small, and the id-translation maps must not be trusted blind.
pub fn load_sharded_manifest(dir: &Path) -> Result<ShardedManifest, PersistError> {
    let buf = read_aligned(&manifest_file(dir))?;
    let sections = parse_sections(buf.bytes(), LoadMode::Verify)?;
    let payload = sections
        .iter()
        .find(|(t, _)| *t == SEC_MANIFEST)
        .map(|(_, p)| *p)
        .ok_or(PersistError::MissingSection {
            section: "manifest",
        })?;
    let parts = dec_manifest(payload)?;
    let num_shards = parts.globals.len();
    if parts.engine_present.len() != num_shards {
        return Err(PersistError::Corrupt {
            section: "manifest",
            detail: format!(
                "presence flags ({}) disagree with global maps ({num_shards})",
                parts.engine_present.len()
            ),
        });
    }
    Ok(ShardedManifest {
        k: parts.k as usize,
        num_shards,
        engine_present: parts.engine_present,
        globals: parts
            .globals
            .into_iter()
            .map(|g| g.into_iter().map(RankingId).collect())
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Algorithm, EngineBuilder};
    use ranksim_datasets::nyt_like;
    use ranksim_rankings::{raw_threshold, QueryStats, RankingId};

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ranksim-persist-{tag}-{}.rssn", std::process::id()));
        p
    }

    fn built_engine(n: usize, seed: u64) -> Engine {
        let ds = nyt_like(n, 8, seed);
        EngineBuilder::new(ds.store)
            .coarse_threshold(0.4)
            .coarse_drop_threshold(0.06)
            .build()
    }

    #[test]
    fn round_trip_preserves_answers() {
        let path = temp_path("roundtrip");
        let engine = built_engine(250, 5);
        save_engine(&path, &engine, SnapshotMeta::default()).unwrap();
        for mode in [LoadMode::Verify, LoadMode::Trust] {
            let (loaded, meta) = load_engine(&path, mode).unwrap();
            assert_eq!(meta, SnapshotMeta::default());
            let theta = raw_threshold(0.25, 8);
            let q: Vec<_> = engine.store().items(RankingId(3)).to_vec();
            let mut s1 = engine.scratch();
            let mut s2 = loaded.scratch();
            let mut stats = QueryStats::new();
            for alg in Algorithm::ALL {
                let a = engine.query_items(alg, &q, theta, &mut s1, &mut stats);
                let b = loaded.query_items(alg, &q, theta, &mut s2, &mut stats);
                assert_eq!(a, b, "{alg} diverged after a snapshot round trip");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn meta_coordinates_round_trip() {
        let path = temp_path("meta");
        let engine = built_engine(60, 9);
        let meta = SnapshotMeta {
            log_pos: 41,
            wal_base: 17,
        };
        save_engine(&path, &engine, meta).unwrap();
        let (_, got) = load_engine(&path, LoadMode::Verify).unwrap();
        assert_eq!(got, meta);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn misaligned_cast_falls_back_to_checked_copy() {
        let mut storage = vec![0u8; 4 * 5 + 1];
        for (i, chunk) in storage[1..].chunks_exact_mut(4).enumerate() {
            chunk.copy_from_slice(&(i as u32 + 7).to_le_bytes());
        }
        // Force the misaligned path regardless of allocator luck by
        // slicing off one byte.
        let odd = &storage[1..];
        assert_eq!(cast_u32s(odd), vec![7, 8, 9, 10, 11]);
    }

    #[test]
    fn sharded_round_trip_preserves_answers() {
        use crate::shard::{ShardStrategy, ShardedEngineBuilder};
        let mut dir = std::env::temp_dir();
        dir.push(format!("ranksim-persist-sharded-{}", std::process::id()));
        let ds = nyt_like(300, 8, 31);
        let mut b = ShardedEngineBuilder::new(8, 3, ShardStrategy::Hash)
            .coarse_threshold(0.5)
            .coarse_drop_threshold(0.06);
        b.extend_from_store(&ds.store);
        let mut sharded = b.build();
        for i in 0..30u32 {
            sharded.remove_ranking(RankingId(i * 7));
        }
        save_sharded(&dir, &sharded).unwrap();
        let loaded = load_sharded(&dir, LoadMode::Verify).unwrap();
        assert_eq!(loaded.len(), sharded.len());
        assert_eq!(loaded.live_len(), sharded.live_len());
        let theta = raw_threshold(0.25, 8);
        let mut s1 = sharded.scratch();
        let mut s2 = loaded.scratch();
        let mut stats = QueryStats::new();
        for qid in [1u32, 44, 160, 299] {
            let q: Vec<_> = ds.store.items(RankingId(qid)).to_vec();
            for alg in [Algorithm::Fv, Algorithm::Coarse, Algorithm::ListMerge] {
                let a = sharded.query_items(alg, &q, theta, &mut s1, &mut stats);
                let b = loaded.query_items(alg, &q, theta, &mut s2, &mut stats);
                assert_eq!(a, b, "{alg} diverged after a sharded round trip");
            }
            assert_eq!(
                sharded.query_topk(&q, 9, &mut s1, &mut stats),
                loaded.query_topk(&q, 9, &mut s2, &mut stats),
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_is_atomic_no_temp_left_behind() {
        let path = temp_path("atomic");
        let engine = built_engine(40, 2);
        save_engine(&path, &engine, SnapshotMeta::default()).unwrap();
        assert!(!temp_sibling(&path).exists());
        // Overwrite in place: a second save must land atomically too.
        save_engine(&path, &engine, SnapshotMeta::default()).unwrap();
        assert!(load_engine(&path, LoadMode::Verify).is_ok());
        std::fs::remove_file(&path).unwrap();
    }
}
