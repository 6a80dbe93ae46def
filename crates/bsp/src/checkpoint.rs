//! Versioned, checksummed checkpoint files for superstep state.
//!
//! A checkpoint is a payload of little-endian u64 words inside a small
//! versioned container, written atomically (temp file + rename) so a crash
//! mid-write never leaves a file that restores:
//!
//! ```text
//! word 0  magic   0x45434B50_54303141  ("ECKPT01A")
//! word 1  version CHECKPOINT_VERSION
//! word 2  len     number of payload words
//! word 3  check   word-folded FNV-1a over the payload
//! words 4..4+len  payload
//! ```
//!
//! Restore is paranoid by design: a torn write, wrong magic, foreign
//! version, truncated payload, or checksum mismatch yields a typed
//! [`CheckpointError`] — the caller treats the file as absent rather than
//! trusting it. The payload layout is the caller's business; this module
//! only guarantees "either the exact payload written, or a typed refusal".

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Container magic ("ECKPT01A" squeezed into a u64).
pub const CHECKPOINT_MAGIC: u64 = 0x4543_4B50_5430_3141;
/// Current container version.
pub const CHECKPOINT_VERSION: u64 = 1;

/// Typed reasons a checkpoint file cannot be restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file does not exist.
    Missing,
    /// The file does not start with [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The file was written by an incompatible container version.
    UnsupportedVersion(u64),
    /// The file ends before the declared payload does (torn write).
    Truncated,
    /// The payload does not match its checksum (corrupted write).
    ChecksumMismatch,
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Missing => write!(f, "checkpoint file missing"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::Truncated => write!(f, "torn checkpoint (truncated payload)"),
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::NotFound {
            CheckpointError::Missing
        } else {
            CheckpointError::Io(e)
        }
    }
}

/// Word-folded FNV-1a (the same fold the CSR file format uses).
fn fnv1a_words(words: &[[u8; 8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        h ^= u64::from_le_bytes(*w);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Canonical checkpoint file name for `worker` at `superstep` — the state
/// *entering* that superstep.
pub fn checkpoint_file(dir: &Path, worker: u32, superstep: u32) -> PathBuf {
    dir.join(format!("ckpt-w{worker}-s{superstep}.bin"))
}

/// Atomically writes the word payload `payload` (a whole number of
/// little-endian u64 words) to `path` (temp file in the same directory,
/// then rename). Returns the total Longs written including the container
/// header.
pub fn write_checkpoint(path: &Path, payload: &[u8]) -> Result<u64, CheckpointError> {
    let (words, []) = payload.as_chunks::<8>() else {
        return Err(CheckpointError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "checkpoint payload is not word-aligned",
        )));
    };
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        let mut header = Vec::with_capacity(32);
        for w in
            [CHECKPOINT_MAGIC, CHECKPOINT_VERSION, words.len() as u64, fnv1a_words(words)]
        {
            header.extend_from_slice(&w.to_le_bytes());
        }
        f.write_all(&header)?;
        f.write_all(payload)?;
        f.sync_all().ok();
    }
    fs::rename(&tmp, path)?;
    Ok(4 + words.len() as u64)
}

/// Reads and fully validates a checkpoint, returning its payload. The only
/// buffer is the file's own: the payload is validated where it lies and
/// the header shifted off.
pub fn read_checkpoint(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    let mut bytes = fs::read(path)?;
    if bytes.len() < 32 {
        return Err(CheckpointError::Truncated);
    }
    // A torn write from a killed worker must surface as a typed error, so
    // every word read is bounds-checked rather than indexed.
    let word = |i: usize| {
        bytes
            .get(8 * i..8 * i + 8)
            .and_then(|s| s.try_into().ok())
            .map(u64::from_le_bytes)
            .ok_or(CheckpointError::Truncated)
    };
    if word(0)? != CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    if word(1)? != CHECKPOINT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(word(1)?));
    }
    let len = word(2)? as usize;
    // Checked arithmetic: a corrupt length word must not overflow the
    // size computation (a debug-build panic is still a panic).
    let need =
        len.checked_add(4).and_then(|n| n.checked_mul(8)).ok_or(CheckpointError::Truncated)?;
    let payload = bytes.get(32..need).ok_or(CheckpointError::Truncated)?;
    if fnv1a_words(payload.as_chunks::<8>().0) != word(3)? {
        return Err(CheckpointError::ChecksumMismatch);
    }
    bytes.truncate(need);
    bytes.drain(..32);
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(words: &[u64]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("euler-ckpt-test-{}-{tag}", std::process::id()));
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn roundtrip() {
        let dir = temp_dir("roundtrip");
        let path = checkpoint_file(&dir, 3, 7);
        let words: Vec<u64> = (0..1000).map(|i| i * 31 + 7).collect();
        let longs = write_checkpoint(&path, &payload(&words)).unwrap();
        assert_eq!(longs, 4 + 1000);
        assert_eq!(read_checkpoint(&path).unwrap(), payload(&words));
        assert!(write_checkpoint(&path, &[1, 2, 3]).is_err(), "a misaligned payload is refused");
        assert!(path.file_name().unwrap().to_str().unwrap().contains("w3-s7"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_payload_roundtrip() {
        let dir = temp_dir("empty");
        let path = checkpoint_file(&dir, 0, 0);
        write_checkpoint(&path, &[]).unwrap();
        assert!(read_checkpoint(&path).unwrap().is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_typed() {
        let dir = temp_dir("missing");
        assert!(matches!(
            read_checkpoint(&checkpoint_file(&dir, 0, 99)),
            Err(CheckpointError::Missing)
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_is_detected_and_refused() {
        let dir = temp_dir("torn");
        let path = checkpoint_file(&dir, 1, 1);
        write_checkpoint(&path, &payload(&[1, 2, 3, 4, 5])).unwrap();
        // Simulate a torn write: chop the file mid-payload.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 12]).unwrap();
        assert!(matches!(read_checkpoint(&path), Err(CheckpointError::Truncated)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_version_tag_is_refused() {
        let dir = temp_dir("version");
        let path = checkpoint_file(&dir, 1, 2);
        write_checkpoint(&path, &payload(&[9, 9, 9])).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..16].copy_from_slice(&99u64.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_payload_bit_is_refused() {
        let dir = temp_dir("corrupt");
        let path = checkpoint_file(&dir, 1, 3);
        write_checkpoint(&path, &payload(&[10, 20, 30])).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x80;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_checkpoint(&path), Err(CheckpointError::ChecksumMismatch)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn arbitrary_garbage_is_refused_not_panicked() {
        let dir = temp_dir("garbage");
        let path = checkpoint_file(&dir, 2, 0);
        fs::write(&path, b"not a checkpoint").unwrap();
        assert!(matches!(read_checkpoint(&path), Err(CheckpointError::Truncated)));
        fs::write(&path, vec![0xAB; 64]).unwrap();
        assert!(matches!(read_checkpoint(&path), Err(CheckpointError::BadMagic)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overwrite_is_atomic_replacement() {
        let dir = temp_dir("atomic");
        let path = checkpoint_file(&dir, 0, 1);
        write_checkpoint(&path, &payload(&[1])).unwrap();
        write_checkpoint(&path, &payload(&[2, 3])).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), payload(&[2, 3]));
        assert!(!path.with_extension("tmp").exists(), "temp file must not linger");
        fs::remove_dir_all(&dir).ok();
    }
}
