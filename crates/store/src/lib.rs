//! Persistent plan-store format (`qsync-store`).
//!
//! A snapshot is a small text file with one JSON object per line:
//!
//! ```text
//! {"magic":"qsync-store","version":1,"payload_bytes":123,"payload_fnv64":"cbf29ce484222325","entries":2}
//! {"kind":"plan","version":1,"key":"ab12…","body":{…}}
//! {"kind":"plan","version":1,"key":"cd34…","body":{…}}
//! ```
//!
//! The first line is the **header**; everything after it is the **payload**,
//! checksummed as raw bytes with FNV-1a 64. The design goals, in order:
//!
//! 1. **Never serve garbage.** A torn, truncated or bit-flipped file is
//!    rejected as a whole ([`StoreError::Truncated`] /
//!    [`StoreError::ChecksumMismatch`]); the caller boots cold. There is no
//!    partial trust: either the payload hashes clean or none of it is used.
//! 2. **Never lose the last good snapshot.** [`write_atomic`] writes to a
//!    sibling temp file and `rename(2)`s it into place, so a crash mid-write
//!    leaves the previous file intact.
//! 3. **Tolerate schema drift.** Records are self-describing
//!    (`kind`/`version`/`key`/`body`). A reader skips records whose `kind` it
//!    does not know or whose `version` is newer than it understands, and
//!    ignores unknown fields inside ones it does — both counted, never fatal.
//!    Only the *header* version is a hard gate
//!    ([`StoreError::UnsupportedVersion`]): it guards the framing itself.
//!
//! The crate is deliberately generic — it knows nothing about plans. The
//! serving layer decides what record kinds exist and what their bodies mean;
//! this layer owns framing, checksums and atomicity.

#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use serde::{Deserialize, Serialize};

/// The header magic string. A file that does not open with it is not a
/// qsync-store snapshot at all.
pub const MAGIC: &str = "qsync-store";

/// The newest **framing** version this crate reads and the one it always
/// writes. Bumped only when the header/payload envelope itself changes;
/// record-level evolution rides on [`Record::version`] instead.
pub const FORMAT_VERSION: u32 = 1;

/// FNV-1a 64-bit hash of a byte string — the payload checksum. Stable,
/// dependency-free, and the same family the plan-cache fingerprints use.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One self-describing payload record.
///
/// Readers dispatch on `kind`, gate on `version` (skip if newer than they
/// understand), and interpret `body` themselves. Unknown fields added to this
/// struct by future writers are ignored on read.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// What the record describes (e.g. `"plan"`).
    pub kind: String,
    /// Schema version of `body` for this `kind`.
    pub version: u32,
    /// Content-addressed identity of the record within its kind.
    pub key: String,
    /// The kind-specific payload.
    pub body: serde::Value,
}

/// The first line of every snapshot file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Header {
    magic: String,
    version: u32,
    payload_bytes: u64,
    payload_fnv64: String,
    entries: u64,
}

/// Why a snapshot could not be loaded. Every variant means "boot cold" — a
/// load error is never an excuse to serve partial state.
#[derive(Debug)]
pub enum StoreError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The first line is not a parseable header object.
    BadHeader(String),
    /// The header parsed but its magic string is wrong — not our file.
    BadMagic(String),
    /// The header's framing version is newer than this reader understands.
    UnsupportedVersion(u32),
    /// The payload is shorter or longer than the header declared (torn or
    /// truncated write).
    Truncated {
        /// Payload length the header promised.
        expected: u64,
        /// Payload length actually present.
        actual: u64,
    },
    /// The payload bytes do not hash to the header's checksum (bit rot or a
    /// partial overwrite).
    ChecksumMismatch {
        /// Checksum the header promised (hex FNV-1a 64).
        expected: String,
        /// Checksum of the bytes actually present.
        actual: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "snapshot io error: {e}"),
            StoreError::BadHeader(detail) => write!(f, "snapshot header unparseable: {detail}"),
            StoreError::BadMagic(got) => {
                write!(f, "snapshot magic mismatch: got {got:?}, want {MAGIC:?}")
            }
            StoreError::UnsupportedVersion(v) => {
                write!(f, "snapshot format version {v} is newer than supported {FORMAT_VERSION}")
            }
            StoreError::Truncated { expected, actual } => {
                write!(f, "snapshot truncated: header declares {expected} payload bytes, found {actual}")
            }
            StoreError::ChecksumMismatch { expected, actual } => {
                write!(f, "snapshot checksum mismatch: header declares {expected}, payload hashes to {actual}")
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

/// What [`write_atomic`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteReport {
    /// Records written.
    pub entries: u64,
    /// Total file size in bytes (header + payload).
    pub bytes: u64,
}

/// A successfully verified snapshot.
#[derive(Debug, Clone, Default)]
pub struct Loaded {
    /// Every record that parsed. Unknown *kinds* are the caller's problem —
    /// the store cannot know which kinds a reader supports.
    pub records: Vec<Record>,
    /// Payload lines that did not parse as a [`Record`] (written by a future
    /// framing-compatible writer). Skipped, never fatal.
    pub skipped_malformed: u64,
    /// Total file size in bytes (header + payload).
    pub bytes: u64,
}

/// Serialize records into the full snapshot file text (header + payload).
pub fn encode(records: &[Record]) -> String {
    let mut payload = String::new();
    for record in records {
        payload.push_str(&serde_json::to_string(record).expect("record serialization is infallible"));
        payload.push('\n');
    }
    let header = Header {
        magic: MAGIC.to_string(),
        version: FORMAT_VERSION,
        payload_bytes: payload.len() as u64,
        payload_fnv64: format!("{:016x}", fnv64(payload.as_bytes())),
        entries: records.len() as u64,
    };
    let mut text = serde_json::to_string(&header).expect("header serialization is infallible");
    text.push('\n');
    text.push_str(&payload);
    text
}

/// Parse and verify snapshot file text. The full gauntlet: header shape,
/// magic, framing version, declared payload length, checksum — and only then
/// record parsing, which is lenient (malformed records are counted and
/// skipped, because the checksum already proved the bytes are the writer's).
pub fn decode(text: &str) -> Result<Loaded, StoreError> {
    let (header_line, payload) = match text.split_once('\n') {
        Some(parts) => parts,
        None => (text, ""),
    };
    let header: Header = serde_json::from_str(header_line)
        .map_err(|e| StoreError::BadHeader(e.to_string()))?;
    if header.magic != MAGIC {
        return Err(StoreError::BadMagic(header.magic));
    }
    if header.version > FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion(header.version));
    }
    let actual_len = payload.len() as u64;
    if actual_len != header.payload_bytes {
        return Err(StoreError::Truncated { expected: header.payload_bytes, actual: actual_len });
    }
    let actual_fnv = format!("{:016x}", fnv64(payload.as_bytes()));
    if actual_fnv != header.payload_fnv64 {
        return Err(StoreError::ChecksumMismatch {
            expected: header.payload_fnv64,
            actual: actual_fnv,
        });
    }
    let mut loaded = Loaded { bytes: text.len() as u64, ..Loaded::default() };
    for line in payload.lines() {
        if line.is_empty() {
            continue;
        }
        match serde_json::from_str::<Record>(line) {
            Ok(record) => loaded.records.push(record),
            Err(_) => loaded.skipped_malformed += 1,
        }
    }
    Ok(loaded)
}

/// Write a snapshot atomically: serialize, write to a sibling `.tmp` file,
/// fsync, then rename over the target. A crash at any point leaves either the
/// old file or the new one — never a torn mix.
pub fn write_atomic(path: &Path, records: &[Record]) -> Result<WriteReport, StoreError> {
    let text = encode(records);
    let tmp = tmp_path(path);
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(StoreError::Io(e));
    }
    Ok(WriteReport { entries: records.len() as u64, bytes: text.len() as u64 })
}

/// Read and verify a snapshot file.
pub fn read(path: &Path) -> Result<Loaded, StoreError> {
    let text = fs::read_to_string(path)?;
    decode(&text)
}

/// The sibling temp path [`write_atomic`] stages into (same directory, so the
/// final `rename` cannot cross filesystems).
fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record {
                kind: "plan".into(),
                version: 1,
                key: "deadbeef".into(),
                body: serde_json::from_str(r#"{"x":1,"y":[1,2,3]}"#).unwrap(),
            },
            Record {
                kind: "older_kind".into(),
                version: 1,
                key: "cafe".into(),
                body: serde_json::from_str(r#"{"t_min_us":12.5}"#).unwrap(),
            },
        ]
    }

    #[test]
    fn round_trips() {
        let records = sample_records();
        let text = encode(&records);
        let loaded = decode(&text).unwrap();
        assert_eq!(loaded.records, records);
        assert_eq!(loaded.skipped_malformed, 0);
        assert_eq!(loaded.bytes, text.len() as u64);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let text = encode(&[]);
        let loaded = decode(&text).unwrap();
        assert!(loaded.records.is_empty());
    }

    #[test]
    fn rejects_wrong_magic() {
        let text = encode(&sample_records()).replace("qsync-store", "qsync-other");
        // The magic swap happens to keep payload bytes identical but the
        // header is what changed, so the magic gate fires first.
        assert!(matches!(decode(&text), Err(StoreError::BadMagic(_))));
    }

    #[test]
    fn rejects_garbage_header() {
        assert!(matches!(decode("not json\n"), Err(StoreError::BadHeader(_))));
        assert!(matches!(decode(""), Err(StoreError::BadHeader(_))));
    }

    #[test]
    fn rejects_future_framing_version() {
        let text = encode(&sample_records()).replacen("\"version\":1", "\"version\":99", 1);
        assert!(matches!(decode(&text), Err(StoreError::UnsupportedVersion(99))));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let text = encode(&sample_records());
        // Chopping anywhere strictly inside the file must fail verification:
        // inside the header it is unparseable, inside the payload the length
        // no longer matches the declaration.
        for cut in 0..text.len() {
            assert!(decode(&text[..cut]).is_err(), "truncation at {cut} was accepted");
        }
    }

    #[test]
    fn rejects_payload_bit_flip_with_checksum_error() {
        let text = encode(&sample_records());
        let header_len = text.find('\n').unwrap() + 1;
        let mut bytes = text.clone().into_bytes();
        // Flip a low bit of a payload byte (stays valid UTF-8 for ASCII).
        bytes[header_len + 10] ^= 0x01;
        let corrupted = String::from_utf8(bytes).unwrap();
        assert!(matches!(decode(&corrupted), Err(StoreError::ChecksumMismatch { .. })));
    }

    #[test]
    fn skips_unknown_record_shapes_without_failing() {
        // A framing-compatible future writer emits a record this reader's
        // Record struct cannot parse (missing required fields). The payload
        // still checksums clean, so the load succeeds and counts the skip.
        let future = "{\"totally\":\"different\"}\n";
        let known = serde_json::to_string(&sample_records()[0]).unwrap();
        let payload = format!("{known}\n{future}");
        let header = format!(
            "{{\"magic\":\"{MAGIC}\",\"version\":{FORMAT_VERSION},\"payload_bytes\":{},\"payload_fnv64\":\"{:016x}\",\"entries\":2}}\n",
            payload.len(),
            fnv64(payload.as_bytes()),
        );
        let loaded = decode(&format!("{header}{payload}")).unwrap();
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.skipped_malformed, 1);
    }

    #[test]
    fn tolerates_unknown_fields_in_known_records() {
        let known = serde_json::to_string(&sample_records()[0]).unwrap();
        let extended = format!("{},\"added_in_v9\":true}}", &known[..known.len() - 1]);
        let payload = format!("{extended}\n");
        let header = format!(
            "{{\"magic\":\"{MAGIC}\",\"version\":{FORMAT_VERSION},\"payload_bytes\":{},\"payload_fnv64\":\"{:016x}\",\"entries\":1}}\n",
            payload.len(),
            fnv64(payload.as_bytes()),
        );
        let loaded = decode(&format!("{header}{payload}")).unwrap();
        assert_eq!(loaded.records, vec![sample_records()[0].clone()]);
        assert_eq!(loaded.skipped_malformed, 0);
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join(format!("qsync-store-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.qss");
        let records = sample_records();
        let report = write_atomic(&path, &records).unwrap();
        assert_eq!(report.entries, 2);
        let loaded = read(&path).unwrap();
        assert_eq!(loaded.records, records);
        assert_eq!(loaded.bytes, report.bytes);
        // The staging file never survives a successful write.
        assert!(!tmp_path(&path).exists());
        // Overwrite with fewer records; the read must see exactly the new set.
        write_atomic(&path, &records[..1]).unwrap();
        assert_eq!(read(&path).unwrap().records, records[..1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }
}
