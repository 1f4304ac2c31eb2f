//! # qrec-store — embedded LSM-style durable storage
//!
//! Zero-external-dependency persistence subsystem behind the serving
//! layer's session store and model zoo (DESIGN.md §13). The design is a
//! small log-structured merge tree:
//!
//! - [`wal`] — append-only write-ahead log of checksummed,
//!   length-prefixed records with a configurable [`FsyncPolicy`]. Every
//!   mutation is acknowledged only after it is in the WAL (and, under
//!   [`FsyncPolicy::Always`], fsync'd), so a `SIGKILL` never loses an
//!   acknowledged write.
//! - [`memtable`] — the ordered in-memory write buffer (BTree with
//!   tombstones) that absorbs WAL'd mutations until it is flushed.
//! - [`run`] — immutable sorted-run files (SSTable-like): checksummed
//!   blocks, a sparse block index, and a bloom filter so point reads
//!   skip runs that cannot contain the key.
//! - [`manifest`] — the set of live runs, committed by atomic
//!   rename so a crash mid-flush leaves either the old or the new run
//!   set, never a mix.
//! - [`blob`] — a versioned checksummed section container used for the
//!   on-disk model format (header + per-tensor weight blobs).
//! - [`tlog`] — a size-capped telemetry frame log on the WAL framing,
//!   with lenient tail healing and truncate-from-front compaction,
//!   behind the serving layer's durable window history.
//!
//! [`Store`] ties them together: writes go WAL → memtable, reads fall
//! back memtable → runs (newest first), a full memtable flushes to a
//! new run, and [`Store::open`] recovers by loading the manifest and
//! replaying the WAL tail — truncating a torn tail to the last complete
//! record instead of failing or loading garbage.
//!
//! All instruments live in the process-wide [`qrec_obs`] registry under
//! `store.*` names, so the serving layer's `STATS`/`DUMP` verbs report
//! WAL-append latency, recovery time, and run/bloom traffic for free.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod blob;
pub mod bloom;
pub mod checksum;
pub mod error;
pub mod manifest;
pub mod memtable;
pub mod run;
pub mod store;
pub mod tlog;
pub mod wal;

pub use blob::{read_blob, write_blob, Blob};
pub use bloom::Bloom;
pub use checksum::crc32;
pub use error::StoreError;
pub use manifest::{Manifest, RunMeta};
pub use memtable::Memtable;
pub use run::Run;
pub use store::{forbid_waiting, NoWait, Store, StoreConfig, StoreStats};
pub use tlog::TelemetryLog;
pub use wal::{FsyncPolicy, TailDefect, TailReason, Wal, WalReplay};

use std::fs::File;
use std::io;
use std::path::Path;

/// Durably replace the file at `path` with `bytes`: write to a `.tmp`
/// sibling, fsync it, atomically rename over the target, and fsync the
/// parent directory so the rename itself survives a crash. Readers see
/// either the old content or the new content, never a torn mix.
///
/// # Errors
///
/// Propagates filesystem errors; on error the target file is unchanged.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    {
        let mut f = File::create(&tmp)?;
        io::Write::write_all(&mut f, bytes)?;
        // qrec-lint: allow(blocking) -- manifest commit happens at memtable-flush boundaries, not per request; crash safety requires the data fsync before the rename
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

/// The `.tmp` sibling path used by [`atomic_write`].
fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// fsync the directory containing `path`, making a just-performed
/// rename durable. A missing parent (relative single-component path)
/// falls back to the current directory.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    // qrec-lint: allow(blocking) -- directory fsync seals a rename at flush boundaries only; without it the manifest swap is not crash-durable
    File::open(parent)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_replaces_content() {
        let dir = std::env::temp_dir().join(format!("qrec-store-aw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("target.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!tmp_sibling(&path).exists(), "tmp file must not linger");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
