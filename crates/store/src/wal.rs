//! Append-only write-ahead log with checksummed, length-prefixed
//! records and a configurable fsync policy.
//!
//! On-disk framing of one record:
//!
//! ```text
//! [payload_len: u32 LE][crc32(payload): u32 LE][payload bytes]
//! ```
//!
//! [`Wal::append`] assembles the frame in one buffer and issues a
//! single `write_all`, then applies the [`FsyncPolicy`]; the caller's
//! acknowledgement therefore implies the record is at least in the OS
//! page cache, and — under [`FsyncPolicy::Always`] — on stable storage.
//! `Wal::try_append` is the same write without the wait: it takes
//! only the appends the policy would not fsync and refuses the rest.
//!
//! Recovery ([`replay`]) walks frames from the start and stops at the
//! first defective one. A defect is *always* treated as the tail of the
//! log (the standard LSM convention: the only writer appends, so bytes
//! after a bad frame were never acknowledged under `Always`): replay
//! returns every record before it plus a typed [`TailDefect`] naming
//! the offset and reason, and [`truncate_to`] restores the file to the
//! last complete record. [`replay_strict`] converts a defect into a
//! typed [`StoreError::Corrupt`] for callers that must not auto-heal.

use crate::checksum::crc32;
use crate::error::StoreError;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Frame header size: payload length + checksum.
pub const HEADER_BYTES: u64 = 8;

/// Records larger than this are rejected on append and treated as
/// corruption on replay (a length field of garbage bytes would
/// otherwise ask for gigabytes).
pub const MAX_RECORD_BYTES: u32 = 1 << 28;

/// When the WAL file is made durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append. An acknowledged write survives power
    /// loss; the fsync dominates append latency.
    Always,
    /// fsync once per `n` appends (and on [`Wal::sync`]). Bounds loss
    /// to the last `n - 1` acknowledged writes on power failure; a
    /// process crash (`SIGKILL`) alone loses nothing — the bytes are
    /// already with the OS.
    EveryN(u32),
    /// Never fsync (OS flushes on its own schedule). Fastest; process
    /// crashes still lose nothing, power loss may.
    Never,
}

impl FsyncPolicy {
    /// Does the policy fsync an append after which `unsynced` appends
    /// are unsynced? The one place a sync is decided: [`Wal::append`]
    /// syncs when this holds, `Wal::try_append` and
    /// `Store::try_put_can_apply` refuse when it would.
    pub(crate) fn syncs_at(self, unsynced: u32) -> bool {
        match self {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => unsynced >= n.max(1),
            FsyncPolicy::Never => false,
        }
    }
}

/// An open write-ahead log (the single writer).
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    unsynced: u32,
    len: u64,
    buf: Vec<u8>,
}

impl Wal {
    /// Open `path` for appending, creating it if missing. `len` starts
    /// at the current file size — callers that need a validated log
    /// should [`replay`] (and possibly [`truncate_to`]) first.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(path: &Path, policy: FsyncPolicy) -> Result<Wal, StoreError> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            policy,
            unsynced: 0,
            len,
            buf: Vec::new(),
        })
    }

    /// Append one record; returns the file length after the record,
    /// i.e. the offset the *next* record will start at. The record is
    /// written, then the [`FsyncPolicy`] is applied.
    ///
    /// # Errors
    ///
    /// Rejects payloads over [`MAX_RECORD_BYTES`] as corrupt-by-
    /// construction; propagates write and fsync failures.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        let len = self.write_record(payload)?;
        if self.policy.syncs_at(self.unsynced) {
            // qrec-lint: allow(blocking) -- this is the WAL's policy-gated group-commit point: Always syncs every append, EveryN(n) every n-th; a caller that must not wait takes `try_append`, which never reaches here
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(len)
    }

    /// Append one record only if the policy would not fsync it — under
    /// [`FsyncPolicy::Never`], or below the `n`-th append of
    /// [`FsyncPolicy::EveryN`]. Returns the file length after the
    /// record, or `None` with nothing written when this append is one
    /// the policy syncs (every one under [`FsyncPolicy::Always`]): the
    /// caller that cannot wait leaves it to [`Wal::append`].
    ///
    /// # Errors
    ///
    /// As [`Wal::append`], but never an fsync failure.
    pub(crate) fn try_append(&mut self, payload: &[u8]) -> Result<Option<u64>, StoreError> {
        if self.policy.syncs_at(self.unsynced.saturating_add(1)) {
            return Ok(None);
        }
        self.write_record(payload).map(Some)
    }

    /// Frame `payload` and write it with one `write_all`: the record as
    /// the OS holds it, not yet on stable storage (counted in
    /// `unsynced`).
    fn write_record(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        if payload.len() as u64 > u64::from(MAX_RECORD_BYTES) {
            return Err(StoreError::corrupt(
                &self.path,
                self.len,
                format!("record of {} bytes exceeds MAX_RECORD_BYTES", payload.len()),
            ));
        }
        self.buf.clear();
        self.buf.reserve(payload.len() + HEADER_BYTES as usize);
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&crc32(payload).to_le_bytes());
        self.buf.extend_from_slice(payload);
        self.file.write_all(&self.buf)?;
        self.len += self.buf.len() as u64;
        self.unsynced = self.unsynced.saturating_add(1);
        Ok(self.len)
    }

    /// Force an fsync regardless of policy.
    ///
    /// # Errors
    ///
    /// Propagates the fsync failure.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Current file length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Truncate the log to zero length (after its contents were flushed
    /// into a durable run) and fsync the truncation.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn reset(&mut self) -> Result<(), StoreError> {
        self.file.set_len(0)?;
        // qrec-lint: allow(blocking) -- runs once per memtable flush after the run is durable, never per request; the fsync seals the truncation
        self.file.sync_data()?;
        self.len = 0;
        self.unsynced = 0;
        Ok(())
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Why replay stopped before end-of-file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailReason {
    /// The file ends inside a frame header or payload (torn write).
    Torn,
    /// A complete frame whose payload does not match its checksum.
    ChecksumMismatch,
    /// A frame header declaring an impossible payload length.
    BadLength,
}

impl std::fmt::Display for TailReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TailReason::Torn => write!(f, "torn record (file ends mid-frame)"),
            TailReason::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            TailReason::BadLength => write!(f, "implausible record length"),
        }
    }
}

/// A defective log tail found during replay: everything from `offset`
/// on is not a complete acknowledged record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailDefect {
    /// Byte offset of the first defective frame.
    pub offset: u64,
    /// What was wrong with it.
    pub reason: TailReason,
}

/// The result of replaying a WAL file.
#[derive(Debug)]
pub struct WalReplay {
    /// Every complete, checksum-valid record in order.
    pub records: Vec<Vec<u8>>,
    /// File offset just past the last valid record — the length to
    /// [`truncate_to`] when `defect` is present.
    pub valid_len: u64,
    /// The tail defect, if the file did not end cleanly.
    pub defect: Option<TailDefect>,
}

/// Replay a WAL file leniently: collect records up to the first defect.
/// A missing file replays as empty (a fresh store has no WAL yet).
///
/// # Errors
///
/// Propagates read errors; defects are *data*, not errors — see
/// [`WalReplay::defect`].
pub fn replay(path: &Path) -> Result<WalReplay, StoreError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let mut records = Vec::new();
    let mut off = 0usize;
    let mut defect = None;
    while off < bytes.len() {
        let remaining = bytes.len() - off;
        if remaining < HEADER_BYTES as usize {
            defect = Some(TailDefect {
                offset: off as u64,
                reason: TailReason::Torn,
            });
            break;
        }
        let len = read_u32(&bytes, off) as usize;
        let crc = read_u32(&bytes, off + 4);
        if len as u64 > u64::from(MAX_RECORD_BYTES) {
            defect = Some(TailDefect {
                offset: off as u64,
                reason: TailReason::BadLength,
            });
            break;
        }
        let start = off + HEADER_BYTES as usize;
        let Some(end) = start.checked_add(len).filter(|&e| e <= bytes.len()) else {
            defect = Some(TailDefect {
                offset: off as u64,
                reason: TailReason::Torn,
            });
            break;
        };
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            defect = Some(TailDefect {
                offset: off as u64,
                reason: TailReason::ChecksumMismatch,
            });
            break;
        }
        records.push(payload.to_vec());
        off = end;
    }
    Ok(WalReplay {
        records,
        valid_len: defect.map_or(bytes.len() as u64, |d| d.offset),
        defect,
    })
}

/// Replay refusing to auto-heal: any tail defect becomes a typed
/// [`StoreError::Corrupt`].
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] naming the offset and defect kind,
/// or propagates read errors.
pub fn replay_strict(path: &Path) -> Result<Vec<Vec<u8>>, StoreError> {
    let r = replay(path)?;
    match r.defect {
        None => Ok(r.records),
        Some(d) => Err(StoreError::corrupt(path, d.offset, d.reason.to_string())),
    }
}

/// Truncate the WAL at `path` to `valid_len` bytes (recovery to the
/// last complete record) and fsync the truncation.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn truncate_to(path: &Path, valid_len: u64) -> Result<(), StoreError> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(valid_len)?;
    file.sync_data()?;
    Ok(())
}

/// Read a little-endian u32 at `off` (caller guarantees bounds).
fn read_u32(bytes: &[u8], off: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[off..off + 4]);
    u32::from_le_bytes(b)
}

/// Verify a file is a readable stream (diagnostic helper for tests and
/// tools): total records and valid byte length.
///
/// # Errors
///
/// Propagates read errors.
pub fn inspect(path: &Path) -> Result<(usize, u64), StoreError> {
    let mut f = File::open(path)?;
    let mut buf = Vec::new();
    f.read_to_end(&mut buf)?;
    let r = replay(path)?;
    Ok((r.records.len(), r.valid_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_wal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qrec-wal-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = temp_wal("roundtrip");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, FsyncPolicy::Always).unwrap();
        wal.append(b"alpha").unwrap();
        wal.append(b"").unwrap();
        wal.append(&[0xFF; 1000]).unwrap();
        let r = replay(&path).unwrap();
        assert!(r.defect.is_none());
        assert_eq!(r.records.len(), 3);
        assert_eq!(r.records[0], b"alpha");
        assert_eq!(r.records[1], b"");
        assert_eq!(r.records[2], vec![0xFF; 1000]);
        assert_eq!(r.valid_len, wal.len());
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let path = temp_wal("torn");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, FsyncPolicy::Never).unwrap();
        wal.append(b"good-one").unwrap();
        let good_len = wal.append(b"good-two").unwrap();
        drop(wal);
        // Simulate a torn write: header + partial payload.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&20u32.to_le_bytes()).unwrap();
        f.write_all(&0xDEAD_BEEFu32.to_le_bytes()).unwrap();
        f.write_all(b"only-part").unwrap();
        drop(f);

        let r = replay(&path).unwrap();
        assert_eq!(r.records.len(), 2);
        let d = r.defect.expect("tail defect");
        assert_eq!(d.reason, TailReason::Torn);
        assert_eq!(d.offset, good_len);
        assert_eq!(r.valid_len, good_len);

        // Strict replay surfaces a typed error.
        let err = replay_strict(&path).unwrap_err();
        assert!(err.is_corrupt(), "{err}");

        // Truncation heals the log; subsequent appends work.
        truncate_to(&path, r.valid_len).unwrap();
        let healed = replay(&path).unwrap();
        assert!(healed.defect.is_none());
        assert_eq!(healed.records.len(), 2);
        let mut wal = Wal::open(&path, FsyncPolicy::Never).unwrap();
        wal.append(b"good-three").unwrap();
        assert_eq!(replay(&path).unwrap().records.len(), 3);
    }

    #[test]
    fn checksum_mismatch_stops_replay() {
        let path = temp_wal("crc");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, FsyncPolicy::Never).unwrap();
        let first_end = wal.append(b"keep-me").unwrap();
        wal.append(b"corrupt-me").unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let flip = first_end as usize + HEADER_BYTES as usize; // first payload byte of record 2
        bytes[flip] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let r = replay(&path).unwrap();
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.records[0], b"keep-me");
        let d = r.defect.expect("defect");
        assert_eq!(d.reason, TailReason::ChecksumMismatch);
        assert_eq!(d.offset, first_end);
    }

    #[test]
    fn bad_length_header_is_typed() {
        let path = temp_wal("badlen");
        let _ = std::fs::remove_file(&path);
        let mut f = File::create(&path).unwrap();
        f.write_all(&u32::MAX.to_le_bytes()).unwrap();
        f.write_all(&0u32.to_le_bytes()).unwrap();
        drop(f);
        let r = replay(&path).unwrap();
        assert!(r.records.is_empty());
        assert_eq!(r.defect.unwrap().reason, TailReason::BadLength);
    }

    #[test]
    fn missing_file_replays_empty() {
        let path = temp_wal("missing").join("nope.log");
        let r = replay(&path).unwrap();
        assert!(r.records.is_empty() && r.defect.is_none() && r.valid_len == 0);
    }

    #[test]
    fn oversized_append_is_rejected() {
        let path = temp_wal("oversize");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, FsyncPolicy::Never).unwrap();
        // Don't allocate 256 MiB in a test: check the guard arithmetic
        // via a crafted length by calling with a just-over payload is
        // infeasible; instead assert the constant is enforced on the
        // replay side by the bad-length test and on append for a small
        // fake via direct comparison.
        assert!(wal.append(&[0u8; 64]).is_ok());
        assert!(u64::from(MAX_RECORD_BYTES) < u64::from(u32::MAX));
    }

    #[test]
    fn reset_empties_the_log() {
        let path = temp_wal("reset");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, FsyncPolicy::EveryN(2)).unwrap();
        wal.append(b"a").unwrap();
        wal.append(b"b").unwrap();
        assert!(!wal.is_empty());
        wal.reset().unwrap();
        assert!(wal.is_empty());
        assert_eq!(replay(&path).unwrap().records.len(), 0);
        wal.append(b"after-reset").unwrap();
        assert_eq!(replay(&path).unwrap().records.len(), 1);
    }
}
