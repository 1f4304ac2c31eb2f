//! The model zoo: versioned on-disk persistence for serving models.
//!
//! Each epoch's [`Recommender`] is written as a [`qrec_store::blob`]
//! container (`model-<epoch>.qmz`): the JSON header carries the
//! architecture config, the model structure, the vocabulary, the
//! fragment lexicon, and per-tensor metadata; one binary section per
//! parameter tensor holds its `f32` values in little-endian byte order.
//! Weights therefore round-trip **bitwise** — the restored model decodes
//! identically to the one that was saved — and every section has its own
//! CRC, so a flipped bit in any weight blob is a typed
//! [`StoreError::Corrupt`], never silently different recommendations.
//!
//! Only f32 weights are persisted. An int8 sidecar is derived state:
//! [`qrec_nn::Params::quantize`] rebuilds it deterministically from the
//! f32 weights, so the server quantizes the loaded model at install
//! time and a restart serves the same int8 bytes. Format v2 writers of
//! the past also appended one int8 section per quantized weight,
//! described by the header's `quant` list; such blobs still load (the
//! int8 sections are counted, CRC-checked by the blob layer, and
//! skipped), and this writer keeps the version at 2 with the list empty
//! so an older binary reads what it writes. v1 blobs (no `quant` field)
//! still load; a blob from a *future* format version is refused with a
//! typed [`StoreError::Corrupt`], never a panic or a misparse.
//!
//! A `CURRENT` pointer file (JSON, installed by atomic rename) names the
//! live epoch; [`ModelZoo::load_current`] follows it on boot. Blobs and
//! pointer are each atomic, and the blob is written before the pointer,
//! so a crash anywhere leaves the previous model loadable.

use qrec_core::{AnyModel, FragmentLexicon, Recommender, RecommenderConfig};
use qrec_nn::Params;
use qrec_store::{blob, StoreError};
use qrec_tensor::Tensor;
use qrec_workload::Vocab;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Zoo format version (the blob container has its own version too).
/// v1: f32 sections only. v2: a `quant` list that may name int8
/// sections after the f32 ones; written empty, skipped on load.
pub const ZOO_VERSION: u32 = 2;

/// Name of the pointer file naming the live model.
pub const CURRENT_FILE: &str = "CURRENT";

/// Shape and name of one persisted parameter tensor; section `i` of the
/// blob holds the `f32` LE bytes of tensor `i`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TensorMeta {
    name: String,
    rows: usize,
    cols: usize,
}

/// The blob's JSON header.
#[derive(Debug, Serialize, Deserialize)]
struct ZooHeader {
    format_version: u32,
    epoch: u64,
    cfg: RecommenderConfig,
    model: AnyModel,
    vocab: Vocab,
    lexicon: FragmentLexicon,
    tensors: Vec<TensorMeta>,
    /// One entry per int8 section a past v2 writer appended; only the
    /// count is read. Written empty, absent in v1.
    #[serde(default)]
    quant: Vec<serde::Value>,
}

/// The `CURRENT` pointer contents.
#[derive(Debug, Serialize, Deserialize)]
struct CurrentPointer {
    epoch: u64,
    file: String,
}

/// A directory of persisted models with a `CURRENT` pointer.
#[derive(Debug)]
pub struct ModelZoo {
    dir: PathBuf,
}

impl ModelZoo {
    /// Open (creating if needed) the zoo directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: &Path) -> Result<ModelZoo, StoreError> {
        std::fs::create_dir_all(dir)?;
        Ok(ModelZoo {
            dir: dir.to_path_buf(),
        })
    }

    /// The blob file name for an epoch.
    pub fn blob_name(epoch: u64) -> String {
        format!("model-{epoch}.qmz")
    }

    /// Persist `model` as the live model for `epoch`: blob first, then
    /// the `CURRENT` pointer, each atomically. Only the f32 weights are
    /// written, also for a quantized model.
    ///
    /// # Errors
    ///
    /// Propagates serialisation and filesystem errors; on error the
    /// previously persisted model remains current.
    pub fn save(&self, epoch: u64, model: &Recommender) -> Result<(), StoreError> {
        let params = model.params();
        let mut tensors = Vec::with_capacity(params.len());
        let mut sections: Vec<Vec<u8>> = Vec::with_capacity(params.len());
        for (name, value) in params.named_tensors() {
            tensors.push(TensorMeta {
                name: name.to_string(),
                rows: value.rows(),
                cols: value.cols(),
            });
            let mut bytes = Vec::with_capacity(value.len() * 4);
            for v in value.data() {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            sections.push(bytes);
        }
        let header = ZooHeader {
            format_version: ZOO_VERSION,
            epoch,
            cfg: *model.config(),
            model: model.model().clone(),
            vocab: model.vocab().clone(),
            lexicon: model.lexicon().clone(),
            tensors,
            quant: Vec::new(),
        };
        let header_json = serde_json::to_string(&header)
            .map_err(|e| StoreError::Io(format!("zoo header serialise: {e}")))?;
        let file = ModelZoo::blob_name(epoch);
        let blob_path = self.dir.join(&file);
        let refs: Vec<&[u8]> = sections.iter().map(Vec::as_slice).collect();
        blob::write_blob(&blob_path, &header_json, &refs)?;

        let pointer = serde_json::to_string(&CurrentPointer { epoch, file })
            .map_err(|e| StoreError::Io(format!("zoo pointer serialise: {e}")))?;
        qrec_store::atomic_write(&self.dir.join(CURRENT_FILE), pointer.as_bytes())?;
        Ok(())
    }

    /// Load the model the `CURRENT` pointer names, fully validating the
    /// blob. `Ok(None)` when the zoo has never saved a model. The model
    /// comes back unquantized.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the pointer, header, or any weight
    /// section fails validation — a damaged zoo refuses to load rather
    /// than serving garbage weights.
    pub fn load_current(&self) -> Result<Option<(u64, Recommender)>, StoreError> {
        let pointer_path = self.dir.join(CURRENT_FILE);
        let pointer_bytes = match std::fs::read(&pointer_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let pointer_text = String::from_utf8(pointer_bytes)
            .map_err(|_| StoreError::corrupt(&pointer_path, 0, "pointer is not UTF-8"))?;
        let pointer: CurrentPointer = serde_json::from_str(&pointer_text)
            .map_err(|e| StoreError::corrupt(&pointer_path, 0, format!("pointer parse: {e}")))?;

        let blob_path = self.dir.join(&pointer.file);
        let b = blob::read_blob(&blob_path)?;
        let header: ZooHeader = serde_json::from_str(&b.header)
            .map_err(|e| StoreError::corrupt(&blob_path, 0, format!("header parse: {e}")))?;
        // v1 (f32 only) and v2 (maybe int8 sections) both load; version 0 and
        // anything from a future writer are refused with a typed error
        // rather than misparsing sections.
        if header.format_version == 0 || header.format_version > ZOO_VERSION {
            return Err(StoreError::corrupt(
                &blob_path,
                0,
                format!("unsupported zoo format version {}", header.format_version),
            ));
        }
        if header.epoch != pointer.epoch {
            return Err(StoreError::corrupt(
                &blob_path,
                0,
                format!(
                    "pointer names epoch {} but blob holds epoch {}",
                    pointer.epoch, header.epoch
                ),
            ));
        }
        let want_sections = header.tensors.len() + header.quant.len();
        if want_sections != b.sections.len() {
            return Err(StoreError::corrupt(
                &blob_path,
                0,
                format!(
                    "header lists {} tensor + {} int8 sections but blob has {}",
                    header.tensors.len(),
                    header.quant.len(),
                    b.sections.len()
                ),
            ));
        }

        let mut named = Vec::with_capacity(header.tensors.len());
        for (meta, section) in header.tensors.iter().zip(&b.sections) {
            let want = meta
                .rows
                .checked_mul(meta.cols)
                .and_then(|n| n.checked_mul(4));
            if want != Some(section.len()) {
                return Err(StoreError::corrupt(
                    &blob_path,
                    0,
                    format!(
                        "tensor {:?} declares {}x{} but its section holds {} bytes",
                        meta.name,
                        meta.rows,
                        meta.cols,
                        section.len()
                    ),
                ));
            }
            let mut data = Vec::with_capacity(section.len() / 4);
            for chunk in section.chunks_exact(4) {
                let mut b4 = [0u8; 4];
                b4.copy_from_slice(chunk);
                data.push(f32::from_le_bytes(b4));
            }
            named.push((
                meta.name.clone(),
                Tensor::from_vec(meta.rows, meta.cols, data),
            ));
        }
        // Any int8 sections past the f32 ones are skipped: the server
        // quantizes the f32 weights it installs.
        let rec = Recommender::from_parts(
            header.cfg,
            header.model,
            Params::from_named_tensors(named),
            header.vocab,
            header.lexicon,
        );
        Ok(Some((header.epoch, rec)))
    }

    /// The zoo's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}
