//! # `sas-snap` — versioned binary snapshot container
//!
//! The checkpoint/restore substrate for the simulator (DESIGN.md §11): a
//! zero-dependency binary codec with
//!
//! * a **magic/version/flags header** protected by its own CRC32, so a
//!   truncated, mis-versioned or bit-flipped file is rejected before any
//!   payload byte is interpreted;
//! * a flat **section table** — each section is `(name, length, CRC32,
//!   payload)` — so tools ([`Snapshot::sections`], the `sas-snap` CLI) can
//!   inspect integrity without understanding any payload;
//! * **varint-compact primitives** ([`Enc`]/[`Dec`]): LEB128 for unsigned
//!   integers, zigzag+LEB128 for signed, length-prefixed byte strings.
//!
//! Every byte of a snapshot file is covered by exactly one checksum (the
//! header CRC covers the header; each section CRC covers its framing and
//! payload), so **any single flipped byte is detected**: restore paths that
//! go through [`Snapshot::section`] can never silently consume corrupted
//! state. Writing goes through [`SnapshotBuilder::write_atomic`]
//! (temp + rename, the same discipline as the supervisor heartbeat), so a
//! kill mid-write leaves either the previous checkpoint or a stale `.tmp`,
//! never a half-written live file.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::io::{self, Write};
use std::path::Path;

/// File magic: "SASNAP" + NUL + format generation.
pub const MAGIC: [u8; 8] = *b"SASNAP\x00\x01";

/// Current snapshot format version. Readers reject every other version:
/// anything newer is unknown, version 1 recorded program fingerprints over
/// rendered `.sasm` text, which this build no longer computes, version 2
/// carried per-core policy-state blobs and ghost-buffer epochs, which no
/// longer exist, version 3 carried per-core event traces, which no longer
/// exist either, version 4 stored every resident memory page where later
/// versions store only the pages that differ from the build-time image,
/// version 5 fingerprinted program data a byte at a time where later
/// versions hash it a word at a time, and version 6 hashed the bytes of
/// generated data where version 7 hashes its recipe (see DESIGN.md §11 for
/// the migration policy).
pub const VERSION: u16 = 7;

/// Header flag: the snapshot is a warmed-baseline image — caches, predictors
/// and architectural state warmed under the unprotected baseline. Restoring
/// relaxes the policy-name check, so one image forks cells for *any*
/// mitigation.
pub const FLAG_WARM_BASE: u16 = 1 << 0;

/// Header flag: the snapshotted system had telemetry attached.
pub const FLAG_TELEMETRY: u16 = 1 << 1;

/// Size of the fixed header: magic + version + flags + section count +
/// header CRC.
pub const HEADER_LEN: usize = 8 + 2 + 2 + 4 + 4;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a snapshot could not be parsed, verified or decoded.
///
/// Everything here is a *rejection*: callers treat any variant as "this
/// checkpoint is unusable, fall back to replay-from-start". No variant may
/// ever be ignored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// An I/O error reading or writing the snapshot file.
    Io(String),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not the one this reader supports.
    BadVersion {
        /// Version found in the header.
        found: u16,
        /// The only version this build reads.
        supported: u16,
    },
    /// The header CRC32 does not match the header bytes.
    BadHeaderCrc,
    /// A section's CRC32 does not match its framing + payload bytes.
    BadSectionCrc {
        /// Section name (best-effort; may itself be damaged).
        name: String,
    },
    /// The file ended before the structure it promised.
    Truncated(&'static str),
    /// An enum tag or length field held an impossible value.
    BadValue {
        /// What was being decoded.
        what: &'static str,
        /// The offending raw value.
        value: u64,
    },
    /// A section the restore path requires is absent.
    MissingSection(&'static str),
    /// The snapshot was taken from a differently-configured simulator
    /// (program, policy, core count, telemetry…) than the restore target.
    Mismatch {
        /// Which fingerprint component differs.
        what: &'static str,
        /// Fingerprint recorded in the snapshot.
        expected: String,
        /// Fingerprint of the restore target.
        found: String,
    },
    /// A section decoded cleanly but left unconsumed trailing bytes — the
    /// writer and reader disagree about the schema.
    TrailingBytes(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::BadVersion { found, supported } => {
                let age = if found > supported { "newer" } else { "older" };
                write!(
                    f,
                    "snapshot version {found} is {age} than supported version {supported}"
                )
            }
            SnapError::BadHeaderCrc => write!(f, "snapshot header CRC mismatch"),
            SnapError::BadSectionCrc { name } => {
                write!(f, "snapshot section `{name}` CRC mismatch")
            }
            SnapError::Truncated(what) => write!(f, "snapshot truncated in {what}"),
            SnapError::BadValue { what, value } => {
                write!(f, "snapshot holds impossible {what} value {value}")
            }
            SnapError::MissingSection(name) => {
                write!(f, "snapshot is missing required section `{name}`")
            }
            SnapError::Mismatch {
                what,
                expected,
                found,
            } => {
                write!(
                    f,
                    "snapshot {what} mismatch: snapshot has {expected}, target has {found}"
                )
            }
            SnapError::TrailingBytes(what) => {
                write!(f, "snapshot section `{what}` has trailing bytes")
            }
        }
    }
}

impl std::error::Error for SnapError {}

impl From<std::io::Error> for SnapError {
    fn from(e: std::io::Error) -> Self {
        SnapError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, slice-by-8)
// ---------------------------------------------------------------------------

/// `t[0]` is the classic bytewise table; `t[k][b]` is the CRC contribution
/// of byte `b` followed by `k` zero bytes, so eight tables fold eight input
/// bytes per step with independent lookups.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_parts(&[data])
}

/// CRC32 (IEEE) of the concatenation of `parts`, without concatenating
/// them.
fn crc32_parts(parts: &[&[u8]]) -> u32 {
    parts.iter().fold(0xFFFF_FFFF, |c, p| crc32_update(c, p)) ^ 0xFFFF_FFFF
}

/// Folds `data` into the raw (pre-inversion) CRC register `c`.
fn crc32_update(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = data.chunks_exact(8);
    for b in &mut chunks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][b[4] as usize]
            ^ t[2][b[5] as usize]
            ^ t[1][b[6] as usize]
            ^ t[0][b[7] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

/// Bytes [`Enc::uv`] takes to encode `v`.
pub fn uv_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Append-only binary encoder over the snapshot primitives.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Reserves room for at least `additional` more bytes, so an encoder
    /// whose size is known up front is not grown by doubling copies.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Current encoded length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// LEB128 varint (1 byte for values < 128, ≤ 10 bytes worst case).
    pub fn uv(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Zigzag + LEB128 signed varint.
    pub fn iv(&mut self, v: i64) {
        self.uv(((v << 1) ^ (v >> 63)) as u64);
    }

    /// A `usize` as a varint.
    pub fn usz(&mut self, v: usize) {
        self.uv(v as u64);
    }

    /// A boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// An `f64`, bit-exact.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Raw bytes with no length prefix, for payloads whose size the
    /// schema fixes.
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usz(v.len());
        self.raw(v);
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// An `Option<u64>` as presence byte + varint.
    pub fn opt_uv(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.uv(x);
            }
            None => self.bool(false),
        }
    }

    /// An option encoded via a closure for the `Some` payload.
    pub fn opt_with<T>(&mut self, v: Option<&T>, f: impl FnOnce(&mut Enc, &T)) {
        match v {
            Some(x) => {
                self.bool(true);
                f(self, x);
            }
            None => self.bool(false),
        }
    }

    /// A sequence encoded as varint count + per-item closure.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Enc, &T)) {
        self.usz(items.len());
        for it in items {
            f(self, it);
        }
    }
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

/// Bounds-checked decoder over a section payload.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Section name, used in error reports.
    what: &'static str,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`, labelled `what` for error messages.
    pub fn new(buf: &'a [u8], what: &'static str) -> Dec<'a> {
        Dec { buf, pos: 0, what }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte was consumed (schema drift detector).
    pub fn finish(self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes(self.what))
        }
    }

    /// The next `n` raw bytes (the counterpart of [`Enc::raw`]).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated(self.what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.raw(1)?[0])
    }

    /// LEB128 varint.
    pub fn uv(&mut self) -> Result<u64, SnapError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(SnapError::BadValue {
                    what: self.what,
                    value: byte as u64,
                });
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Zigzag + LEB128 signed varint.
    pub fn iv(&mut self) -> Result<i64, SnapError> {
        let v = self.uv()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// A `usize` varint.
    pub fn usz(&mut self) -> Result<usize, SnapError> {
        let v = self.uv()?;
        usize::try_from(v).map_err(|_| SnapError::BadValue {
            what: self.what,
            value: v,
        })
    }

    /// A bounded `usize` varint (for container lengths).
    pub fn usz_max(&mut self, max: usize) -> Result<usize, SnapError> {
        let v = self.usz()?;
        if v > max {
            return Err(SnapError::BadValue {
                what: self.what,
                value: v as u64,
            });
        }
        Ok(v)
    }

    /// A boolean byte (0 or 1 only).
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::BadValue {
                what: self.what,
                value: b as u64,
            }),
        }
    }

    /// A bit-exact `f64`.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        let b = self.raw(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(
            b.try_into().expect("8 bytes"),
        )))
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.usz()?;
        self.raw(n)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapError::BadValue {
            what: self.what,
            value: 0,
        })
    }

    /// An `Option<u64>`.
    pub fn opt_uv(&mut self) -> Result<Option<u64>, SnapError> {
        if self.bool()? {
            Ok(Some(self.uv()?))
        } else {
            Ok(None)
        }
    }

    /// An option decoded via a closure for the `Some` payload.
    pub fn opt_with<T>(
        &mut self,
        f: impl FnOnce(&mut Dec<'a>) -> Result<T, SnapError>,
    ) -> Result<Option<T>, SnapError> {
        if self.bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }

    /// A sequence: varint count (bounded) + per-item closure.
    pub fn seq<T>(
        &mut self,
        max: usize,
        mut f: impl FnMut(&mut Dec<'a>) -> Result<T, SnapError>,
    ) -> Result<Vec<T>, SnapError> {
        let n = self.usz_max(max)?;
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Snapshot container
// ---------------------------------------------------------------------------

/// Builder for a snapshot file: named sections appended in order.
#[derive(Debug)]
pub struct SnapshotBuilder {
    flags: u16,
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotBuilder {
    /// An empty snapshot with the given header `flags`.
    pub fn new(flags: u16) -> SnapshotBuilder {
        SnapshotBuilder {
            flags,
            sections: Vec::new(),
        }
    }

    /// Appends a section.
    pub fn section(&mut self, name: &str, enc: Enc) {
        assert!(name.len() <= 255, "section names fit a u8 length");
        self.sections.push((name.to_string(), enc.into_bytes()));
    }

    /// Serializes the whole snapshot.
    pub fn to_bytes(&self) -> Vec<u8> {
        let framed: usize = self
            .sections
            .iter()
            .map(|(name, payload)| {
                4 + 1 + name.len() + uv_len(payload.len() as u64) + payload.len()
            })
            .sum();
        let mut out = Vec::with_capacity(HEADER_LEN + framed);
        self.write_to(&mut out)
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Writes the snapshot atomically: the bytes go to `<path>.tmp` first
    /// and are renamed over `path` only once fully written, so a kill at any
    /// point leaves either the old file or a stale temp — never a torn live
    /// checkpoint. The sections stream straight to the file; no framed
    /// copy of the image is built.
    pub fn write_atomic(&self, path: &Path) -> Result<(), SnapError> {
        let tmp = temp_path(path);
        let mut f = io::BufWriter::new(std::fs::File::create(&tmp)?);
        self.write_to(&mut f)?;
        f.flush()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// The one framing path: the header, then per section its CRC, name,
    /// varint payload length and payload. The section CRC covers the framing
    /// (name + length) AND the payload, so a flip anywhere inside the
    /// section is detected; it is folded over the pieces in place.
    fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut head = [0u8; HEADER_LEN];
        head[..8].copy_from_slice(&MAGIC);
        head[8..10].copy_from_slice(&VERSION.to_le_bytes());
        head[10..12].copy_from_slice(&self.flags.to_le_bytes());
        head[12..16].copy_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let hcrc = crc32(&head[..16]);
        head[16..].copy_from_slice(&hcrc.to_le_bytes());
        w.write_all(&head)?;
        for (name, payload) in &self.sections {
            let name_len = [name.len() as u8];
            let mut len = Enc::new();
            len.usz(payload.len());
            let pieces = [&name_len[..], name.as_bytes(), &len.buf, payload];
            w.write_all(&crc32_parts(&pieces).to_le_bytes())?;
            for piece in pieces {
                w.write_all(piece)?;
            }
        }
        Ok(())
    }
}

/// The temp-file path `write_atomic` stages through for `path`.
pub fn temp_path(path: &Path) -> std::path::PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".tmp");
    std::path::PathBuf::from(s)
}

/// One parsed section (framing only; payload is borrowed from the file).
#[derive(Debug, Clone)]
pub struct SectionInfo {
    /// Section name.
    pub name: String,
    /// Payload length in bytes.
    pub len: usize,
    /// Stored CRC32 (covers framing + payload).
    pub crc: u32,
    /// Whether the stored CRC matches the bytes.
    pub ok: bool,
}

struct RawSection {
    name: String,
    crc: u32,
    /// Range of the framed bytes (name + length + payload) in `buf`.
    frame: std::ops::Range<usize>,
    /// Range of the payload bytes in `buf`.
    payload: std::ops::Range<usize>,
}

/// A parsed snapshot file.
pub struct Snapshot {
    buf: Vec<u8>,
    version: u16,
    flags: u16,
    sections: Vec<RawSection>,
}

impl Snapshot {
    /// Parses the container structure and validates the header (magic,
    /// version, header CRC) and section framing. Section payload CRCs are
    /// checked by [`Snapshot::verify`] / [`Snapshot::section`].
    pub fn parse(buf: Vec<u8>) -> Result<Snapshot, SnapError> {
        if buf.len() < HEADER_LEN {
            return Err(SnapError::Truncated("header"));
        }
        if buf[..8] != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = u16::from_le_bytes([buf[8], buf[9]]);
        let flags = u16::from_le_bytes([buf[10], buf[11]]);
        let count = u32::from_le_bytes([buf[12], buf[13], buf[14], buf[15]]);
        let hcrc = u32::from_le_bytes([buf[16], buf[17], buf[18], buf[19]]);
        if crc32(&buf[..16]) != hcrc {
            return Err(SnapError::BadHeaderCrc);
        }
        if version != VERSION {
            return Err(SnapError::BadVersion {
                found: version,
                supported: VERSION,
            });
        }
        let mut sections = Vec::new();
        let mut pos = HEADER_LEN;
        for _ in 0..count {
            if buf.len() < pos + 4 {
                return Err(SnapError::Truncated("section crc"));
            }
            let crc = u32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]);
            pos += 4;
            let frame_start = pos;
            if buf.len() < pos + 1 {
                return Err(SnapError::Truncated("section name"));
            }
            let nlen = buf[pos] as usize;
            pos += 1;
            if buf.len() < pos + nlen {
                return Err(SnapError::Truncated("section name"));
            }
            let name = String::from_utf8_lossy(&buf[pos..pos + nlen]).into_owned();
            pos += nlen;
            let mut d = Dec::new(&buf[pos..], "section length");
            let plen = d
                .usz()
                .map_err(|_| SnapError::Truncated("section length"))?;
            pos += buf[pos..].len() - d.remaining();
            if buf.len() < pos + plen {
                return Err(SnapError::Truncated("section payload"));
            }
            let payload = pos..pos + plen;
            pos += plen;
            sections.push(RawSection {
                name,
                crc,
                frame: frame_start..pos,
                payload,
            });
        }
        if pos != buf.len() {
            return Err(SnapError::TrailingBytes("container"));
        }
        Ok(Snapshot {
            buf,
            version,
            flags,
            sections,
        })
    }

    /// Reads and parses `path`.
    pub fn read(path: &Path) -> Result<Snapshot, SnapError> {
        Snapshot::parse(std::fs::read(path)?)
    }

    /// Format version from the header.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Header flags.
    pub fn flags(&self) -> u16 {
        self.flags
    }

    /// Per-section framing info with integrity status (for tooling).
    pub fn sections(&self) -> Vec<SectionInfo> {
        self.sections
            .iter()
            .map(|s| SectionInfo {
                name: s.name.clone(),
                len: s.payload.len(),
                crc: s.crc,
                ok: crc32(&self.buf[s.frame.clone()]) == s.crc,
            })
            .collect()
    }

    /// Verifies every section CRC (for tooling; restore paths check each
    /// section once through [`Snapshot::section`] instead).
    pub fn verify(&self) -> Result<(), SnapError> {
        for s in &self.sections {
            if crc32(&self.buf[s.frame.clone()]) != s.crc {
                return Err(SnapError::BadSectionCrc {
                    name: s.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// A decoder over the named section's payload, after verifying that
    /// section's CRC. This is the only way restore code reads payload bytes,
    /// so corrupted state can never be silently consumed.
    pub fn section(&self, name: &'static str) -> Result<Dec<'_>, SnapError> {
        let s = self
            .sections
            .iter()
            .find(|s| s.name == name)
            .ok_or(SnapError::MissingSection(name))?;
        if crc32(&self.buf[s.frame.clone()]) != s.crc {
            return Err(SnapError::BadSectionCrc {
                name: s.name.clone(),
            });
        }
        Ok(Dec::new(&self.buf[s.payload.clone()], name))
    }
}

/// FNV-1a 64-bit hash, used for configuration fingerprints.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain bytewise CRC loop over the first table: the reference the
    /// slice-by-8 [`crc32`] must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b""), 0);
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_reference() {
        sas_ptest::check("slice_by_8_matches_the_bytewise_reference", 512, |rng| {
            let len = rng.range(0, 258) as usize;
            let start = rng.range(0, 8) as usize;
            let buf: Vec<u8> = (0..start + len).map(|_| rng.next_u64() as u8).collect();
            let data = &buf[start..];
            assert_eq!(
                crc32(data),
                crc32_bytewise(data),
                "len {len}, offset {start}"
            );
        });
    }

    #[test]
    fn crc_over_pieces_matches_the_crc_of_their_concatenation() {
        sas_ptest::check(
            "crc_over_pieces_matches_the_crc_of_their_concatenation",
            256,
            |rng| {
                let buf: Vec<u8> = (0..rng.range(0, 300))
                    .map(|_| rng.next_u64() as u8)
                    .collect();
                let (a, rest) = buf.split_at(rng.range(0, buf.len() as u64 + 1) as usize);
                let (b, c) = rest.split_at(rng.range(0, rest.len() as u64 + 1) as usize);
                let split = (a.len(), b.len(), c.len());
                assert_eq!(crc32_parts(&[a, b, c]), crc32(&buf), "split {split:?}");
            },
        );
        assert_eq!(crc32_parts(&[]), 0);
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        let vals = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut e = Enc::new();
        for &v in &vals {
            e.uv(v);
        }
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes, "test");
        for &v in &vals {
            assert_eq!(d.uv().unwrap(), v);
        }
        d.finish().unwrap();
    }

    #[test]
    fn signed_varint_roundtrip() {
        let vals = [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX];
        let mut e = Enc::new();
        for &v in &vals {
            e.iv(v);
        }
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes, "test");
        for &v in &vals {
            assert_eq!(d.iv().unwrap(), v);
        }
    }

    #[test]
    fn small_values_encode_in_one_byte() {
        let mut e = Enc::new();
        e.uv(42);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn primitives_roundtrip() {
        let mut e = Enc::new();
        e.bool(true);
        e.bool(false);
        e.f64(1.5);
        e.bytes(b"abc");
        e.str("hé");
        e.opt_uv(Some(9));
        e.opt_uv(None);
        e.seq(&[1u64, 2, 3], |e, &v| e.uv(v));
        e.raw(b"xyz");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes, "test");
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.f64().unwrap(), 1.5);
        assert_eq!(d.bytes().unwrap(), b"abc");
        assert_eq!(d.str().unwrap(), "hé");
        assert_eq!(d.opt_uv().unwrap(), Some(9));
        assert_eq!(d.opt_uv().unwrap(), None);
        assert_eq!(d.seq(10, |d| d.uv()).unwrap(), vec![1, 2, 3]);
        assert_eq!(d.raw(3).unwrap(), b"xyz");
        d.finish().unwrap();
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut e = Enc::new();
        e.uv(1);
        e.uv(2);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes, "test");
        d.uv().unwrap();
        assert_eq!(d.finish(), Err(SnapError::TrailingBytes("test")));
    }

    #[test]
    fn truncated_reads_are_rejected() {
        let mut d = Dec::new(&[0x80], "test"); // unterminated varint
        assert!(d.uv().is_err());
        let mut d = Dec::new(&[3, b'a'], "test"); // bytes promise 3, hold 1
        assert!(d.bytes().is_err());
    }

    fn sample() -> Vec<u8> {
        let mut b = SnapshotBuilder::new(FLAG_TELEMETRY);
        let mut e = Enc::new();
        e.str("meta-content");
        b.section("meta", e);
        let mut e = Enc::new();
        e.seq(&[7u64, 8, 9], |e, &v| e.uv(v));
        b.section("state", e);
        b.to_bytes()
    }

    /// `to_bytes` output is pinned byte for byte: header, then per section
    /// CRC, name, varint length and payload. Only the version field and the
    /// header CRC over it change with a format version.
    #[test]
    fn two_section_bytes_are_pinned() {
        let want = "5341534e4150000107000200020000006ab62c4b\
                    48af875f046d6574610d0c6d6574612d636f6e74656e74\
                    1f56c1a50573746174650403070809";
        let got: String = sample().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn varint_length_matches_the_encoder() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut e = Enc::new();
            e.uv(v);
            assert_eq!(uv_len(v), e.len(), "{v}");
        }
    }

    #[test]
    fn container_roundtrip() {
        let bytes = sample();
        let s = Snapshot::parse(bytes).unwrap();
        assert_eq!(s.version(), VERSION);
        assert_eq!(s.flags(), FLAG_TELEMETRY);
        s.verify().unwrap();
        let infos = s.sections();
        assert_eq!(infos.len(), 2);
        assert!(infos.iter().all(|i| i.ok));
        let mut d = s.section("meta").unwrap();
        assert_eq!(d.str().unwrap(), "meta-content");
        d.finish().unwrap();
        assert!(matches!(
            s.section("absent"),
            Err(SnapError::MissingSection("absent"))
        ));
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        // The acceptance-criteria core: flip each byte of a snapshot in
        // turn; parse+verify (or reading any section) must fail every time.
        let clean = sample();
        for i in 0..clean.len() {
            for bit in [0x01u8, 0x80] {
                let mut bad = clean.clone();
                bad[i] ^= bit;
                let rejected = match Snapshot::parse(bad) {
                    Err(_) => true,
                    Ok(s) => {
                        s.verify().is_err()
                            || s.section("meta").is_err()
                            || s.section("state").is_err()
                    }
                };
                assert!(rejected, "flip of byte {i} bit {bit:#x} was not detected");
            }
        }
    }

    #[test]
    fn truncated_files_are_rejected() {
        let clean = sample();
        for n in 0..clean.len() {
            assert!(
                Snapshot::parse(clean[..n].to_vec()).is_err(),
                "truncation to {n} bytes was not detected"
            );
        }
    }

    /// `sample()` relabelled as format `version`, header CRC recomputed so
    /// parsing reaches the version check.
    fn sample_as_version(version: u16) -> Vec<u8> {
        let mut bytes = sample();
        bytes[8..10].copy_from_slice(&version.to_le_bytes());
        let crc = crc32(&bytes[..16]).to_le_bytes();
        bytes[16..20].copy_from_slice(&crc);
        bytes
    }

    #[test]
    fn newer_versions_are_rejected() {
        let err = Snapshot::parse(sample_as_version(VERSION + 1)).err();
        assert_eq!(
            err,
            Some(SnapError::BadVersion {
                found: VERSION + 1,
                supported: VERSION
            })
        );
        assert!(err.unwrap().to_string().contains("newer than supported"));
    }

    #[test]
    fn older_versions_are_rejected() {
        // Version 1 fingerprinted programs over rendered `.sasm`; version 2
        // carried policy-state blobs and ghost epochs; version 3 carried
        // event traces; version 4 stored every resident memory page;
        // version 5 fingerprinted data bytewise; version 6 fingerprinted
        // the bytes of generated data, not its recipe. Their images are
        // rejected (and checkpoints replayed), never misread.
        for found in [1, 2, 3, 4, 5, 6] {
            let err = Snapshot::parse(sample_as_version(found)).err();
            assert_eq!(
                err,
                Some(SnapError::BadVersion {
                    found,
                    supported: VERSION
                })
            );
            let msg = err.unwrap().to_string();
            assert!(
                msg.contains(&format!("version {found} is older than supported")),
                "{msg}"
            );
        }
    }

    #[test]
    fn atomic_write_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("sas-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.snap");
        let mut b = SnapshotBuilder::new(0);
        b.section("meta", Enc::new());
        b.write_atomic(&path).unwrap();
        assert!(path.exists());
        assert!(!temp_path(&path).exists());
        let s = Snapshot::read(&path).unwrap();
        s.verify().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
