//! Int8 quantization sidecar for a [`crate::params::Params`] store.
//!
//! [`QuantParams`] holds, per [`crate::params::ParamId`], an optional
//! pre-packed int8 form of that parameter ([`qrec_tensor::qi8`]'s
//! per-tensor symmetric scheme). It is built once at model-load time by
//! [`crate::params::Params::quantize`] and consulted on the inference
//! hot path: [`crate::layers::Linear::forward`] reads projections with an
//! entry from their int8 weights (weight-only: the activations stay f32),
//! and [`crate::layers::Embedding::forward`]
//! gathers rows from the int8 table, dequantizing only the looked-up
//! rows. A store with no sidecar behaves exactly as before — the f32
//! path is bitwise untouched.
//!
//! Eligibility is by naming convention: tensors named `*.w` are the
//! matmul weights of [`crate::layers::Linear`] (attention projections,
//! feed-forward, output heads — the projection-heavy decode cost) and
//! become packed GEMM panels; tensors named `*.emb` are embedding
//! tables and become row-major int8 lookup tables. Norms and biases
//! stay f32 — they are tiny and normalisation accuracy matters more
//! than their footprint.
//!
//! The sidecar is **runtime-only** with respect to serde: `Params`
//! derives `Serialize`, so `QuantParams` implements the traits, but it
//! serialises as `null` and deserialises to an empty sidecar.
//! Persistence of quantized weights is explicit — the model zoo writes
//! the raw int8 matrices and scales into its blob
//! ([`QuantParams::export`]) and rebuilds the packed panels on load
//! ([`QuantParams::import`]).

use crate::params::ParamId;
use qrec_tensor::qi8::{self, QPackedB};
use qrec_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One quantized weight: the packed int8 panels plus shape/scale.
#[derive(Debug, Clone)]
pub struct QWeight {
    /// The pre-packed int8 panels the quantized GEMM consumes.
    pub packed: Arc<QPackedB>,
}

impl QWeight {
    /// Quantize and pack a row-major `k×m` f32 weight tensor.
    pub fn from_tensor(t: &Tensor) -> QWeight {
        QWeight {
            packed: Arc::new(QPackedB::from_f32(t.data(), t.rows(), t.cols())),
        }
    }

    /// Rebuild from a persisted row-major int8 matrix and its scale.
    pub fn from_quantized(q: &[i8], rows: usize, cols: usize, scale: f32) -> QWeight {
        QWeight {
            packed: Arc::new(QPackedB::from_quantized(q, rows, cols, scale)),
        }
    }
}

/// One quantized embedding table: row-major int8 values with a
/// **per-row** scale, gathered (and dequantized) one looked-up row at a
/// time — the full-table f32 form never materialises at inference.
///
/// Rows are quantized independently (each row is a channel: a lookup
/// touches exactly one), so an outlier token's large weights cannot
/// crush the resolution of every other embedding, unlike the per-tensor
/// scheme the GEMM weights use.
#[derive(Debug, Clone)]
pub struct QEmbed {
    rows: usize,
    cols: usize,
    scales: Arc<Vec<f32>>,
    data: Arc<Vec<i8>>,
}

impl QEmbed {
    /// Quantize a row-major `rows×cols` f32 embedding table, one scale
    /// per row.
    pub fn from_tensor(t: &Tensor) -> QEmbed {
        let cols = t.cols();
        let mut scales = Vec::with_capacity(t.rows());
        let mut data = Vec::with_capacity(t.rows() * cols);
        for r in 0..t.rows() {
            let row = &t.data()[r * cols..(r + 1) * cols];
            let scale = qi8::calibrate(row);
            scales.push(scale);
            data.extend(qi8::quantize(row, scale));
        }
        QEmbed {
            rows: t.rows(),
            cols,
            scales: Arc::new(scales),
            data: Arc::new(data),
        }
    }

    /// Rebuild from a persisted row-major int8 table and its per-row
    /// scales (`scales.len() == rows`).
    pub fn from_quantized(q: &[i8], rows: usize, cols: usize, scales: &[f32]) -> QEmbed {
        debug_assert_eq!(scales.len(), rows);
        QEmbed {
            rows,
            cols,
            scales: Arc::new(scales.to_vec()),
            data: Arc::new(q.to_vec()),
        }
    }

    /// Table rows (vocabulary size).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimension.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The per-row dequantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Dequantize the rows named by `ids` into `out`, a row-major
    /// `len(ids)×cols` f32 buffer (the embedding lookup).
    pub fn gather_into(&self, ids: &[usize], out: &mut [f32]) {
        for (dst, &id) in out.chunks_exact_mut(self.cols).zip(ids) {
            assert!(id < self.rows, "embedding id {id} out of {}", self.rows);
            let scale = self.scales[id];
            let row = &self.data[id * self.cols..(id + 1) * self.cols];
            for (o, &v) in dst.iter_mut().zip(row) {
                *o = scale * v as f32;
            }
        }
    }

    /// The raw int8 table, row-major.
    pub fn values(&self) -> &[i8] {
        &self.data
    }

    /// Resident bytes of the int8 table (values plus per-row scales).
    pub fn resident_bytes(&self) -> usize {
        self.data.len() + self.scales.len() * 4
    }
}

/// A quantized parameter: a GEMM weight or an embedding table.
#[derive(Debug, Clone)]
enum QEntry {
    Weight(QWeight),
    Embed(QEmbed),
}

/// One exported quantized entry: `(param index, rows, cols, scales,
/// row-major int8 values)` — the shape [`QuantParams::export`] emits
/// and [`QuantParams::import`] consumes.
pub type QExportEntry = (usize, usize, usize, Vec<f32>, Vec<i8>);

/// Per-parameter quantization sidecar, aligned with the id space of the
/// `Params` store it was built from.
#[derive(Debug, Clone, Default)]
pub struct QuantParams {
    entries: Vec<Option<QEntry>>,
}

impl QuantParams {
    /// Build a sidecar from `(name, tensor)` pairs in id order,
    /// quantizing every `*.w` matmul weight and `*.emb` embedding
    /// table. Deterministic: the same f32 weights always produce the
    /// same packed bytes and scales.
    pub fn build<'a>(tensors: impl Iterator<Item = (&'a str, &'a Tensor)>) -> QuantParams {
        QuantParams {
            entries: tensors
                .map(|(name, t)| {
                    if t.rows() == 0 || t.cols() == 0 {
                        None
                    } else if name.ends_with(".w") {
                        Some(QEntry::Weight(QWeight::from_tensor(t)))
                    } else if name.ends_with(".emb") {
                        Some(QEntry::Embed(QEmbed::from_tensor(t)))
                    } else {
                        None
                    }
                })
                .collect(),
        }
    }

    /// The quantized GEMM form of a parameter, if it has one.
    pub fn weight(&self, id: ParamId) -> Option<&QWeight> {
        match self.entries.get(id.0)? {
            Some(QEntry::Weight(w)) => Some(w),
            _ => None,
        }
    }

    /// The quantized embedding table of a parameter, if it has one.
    pub fn embed(&self, id: ParamId) -> Option<&QEmbed> {
        match self.entries.get(id.0)? {
            Some(QEntry::Embed(e)) => Some(e),
            _ => None,
        }
    }

    /// Number of quantized entries (weights and embeddings).
    pub fn quantized_count(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Resident bytes of all int8 representations (packed panels,
    /// per-panel scales, and embedding tables).
    pub fn packed_bytes(&self) -> usize {
        self.entries
            .iter()
            .flatten()
            .map(|e| match e {
                QEntry::Weight(w) => w.packed.packed_bytes(),
                QEntry::Embed(t) => t.resident_bytes(),
            })
            .sum()
    }

    /// Export every quantized entry as `(param index, rows, cols,
    /// scales, row-major int8 values)` — the persistence surface the
    /// model zoo writes into its blob sections. GEMM weights carry one
    /// per-tensor scale; embedding tables carry one scale per row.
    pub fn export(&self) -> Vec<QExportEntry> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                e.as_ref().map(|e| match e {
                    QEntry::Weight(w) => (
                        i,
                        w.packed.k(),
                        w.packed.m(),
                        vec![w.packed.scale()],
                        w.packed.unpack(),
                    ),
                    QEntry::Embed(t) => (
                        i,
                        t.rows(),
                        t.cols(),
                        t.scales().to_vec(),
                        t.values().to_vec(),
                    ),
                })
            })
            .collect()
    }

    /// Rebuild a sidecar for `params` from exported entries (the
    /// inverse of [`QuantParams::export`]). The entry kind is recovered
    /// from the parameter's name — the same convention
    /// [`QuantParams::build`] applies. Entries whose index is out of
    /// range or whose scale count does not match their kind are ignored
    /// rather than panicking — the zoo validates the header separately.
    pub fn import(params: &crate::params::Params, entries: Vec<QExportEntry>) -> QuantParams {
        let names: Vec<&str> = params.named_tensors().map(|(n, _)| n).collect();
        let mut sidecar = QuantParams {
            entries: vec![None; names.len()],
        };
        for (i, rows, cols, scales, q) in entries {
            let Some(name) = names.get(i) else { continue };
            let entry = if name.ends_with(".emb") {
                if scales.len() != rows {
                    continue;
                }
                QEntry::Embed(QEmbed::from_quantized(&q, rows, cols, &scales))
            } else {
                let Some(&scale) = scales.first() else {
                    continue;
                };
                QEntry::Weight(QWeight::from_quantized(&q, rows, cols, scale))
            };
            sidecar.entries[i] = Some(entry);
        }
        sidecar
    }
}

// The sidecar is rebuilt from f32 weights (or from the zoo's explicit
// int8 sections), never round-tripped through serde: serialise as null,
// deserialise to empty. `Params` is not serde-persisted anywhere in the
// workspace — this exists only to keep its derive compiling.
impl Serialize for QuantParams {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for QuantParams {
    fn from_value(_: &serde::Value) -> Result<Self, serde::Error> {
        Ok(QuantParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;

    fn store() -> Params {
        let mut p = Params::new();
        let w: Vec<f32> = (0..12).map(|i| i as f32 * 0.1 - 0.5).collect();
        p.add("lin.w", Tensor::from_vec(3, 4, w));
        p.add("lin.b", Tensor::zeros(1, 4));
        p.add(
            "emb.emb",
            Tensor::from_vec(2, 3, vec![0.5, -0.25, 0.0, 0.125, -0.5, 0.25]),
        );
        p
    }

    #[test]
    fn build_quantizes_weights_and_embeddings() {
        let p = store();
        let q = QuantParams::build(p.named_tensors());
        assert_eq!(q.quantized_count(), 2);
        assert!(q.weight(ParamId(0)).is_some(), "lin.w quantized as GEMM");
        assert!(q.weight(ParamId(1)).is_none(), "bias stays f32");
        assert!(
            q.embed(ParamId(2)).is_some(),
            "embedding quantized as table"
        );
        assert!(
            q.weight(ParamId(2)).is_none(),
            "embedding is not a GEMM weight"
        );
        assert!(q.embed(ParamId(0)).is_none(), "GEMM weight is not a table");
        assert!(q.packed_bytes() > 0);
    }

    #[test]
    fn embed_gather_dequantizes_selected_rows() {
        let p = store();
        let q = QuantParams::build(p.named_tensors());
        let table = q.embed(ParamId(2)).unwrap();
        let mut got = vec![0.0; 9];
        table.gather_into(&[1, 0, 1], &mut got);
        let full = p.value(ParamId(2));
        // Max quantization error of one value is its row's scale/2.
        for (j, v) in got[..3].iter().enumerate() {
            let tol = table.scales()[1] * 0.5 + 1e-7;
            assert!((v - full.get(1, j)).abs() <= tol, "row 1 col {j}");
        }
        for (j, v) in got[3..6].iter().enumerate() {
            let tol = table.scales()[0] * 0.5 + 1e-7;
            assert!((v - full.get(0, j)).abs() <= tol, "row 0 col {j}");
        }
    }

    #[test]
    fn export_import_round_trips() {
        let p = store();
        let q = QuantParams::build(p.named_tensors());
        let exported = q.export();
        assert_eq!(exported.len(), 2);
        let (idx, rows, cols, scales, bytes) = exported[0].clone();
        assert_eq!((idx, rows, cols), (0, 3, 4));
        assert_eq!(scales.len(), 1, "GEMM weight has a per-tensor scale");
        assert!(scales[0] > 0.0);
        assert_eq!(bytes.len(), 12);
        assert_eq!(exported[1].3.len(), 2, "embedding has per-row scales");
        let rebuilt = QuantParams::import(&p, exported);
        assert_eq!(rebuilt.quantized_count(), 2);
        let a = q.weight(ParamId(0)).unwrap();
        let b = rebuilt.weight(ParamId(0)).unwrap();
        assert_eq!(a.packed.unpack(), b.packed.unpack());
        assert_eq!(a.packed.scale(), b.packed.scale());
        let ea = q.embed(ParamId(2)).unwrap();
        let eb = rebuilt.embed(ParamId(2)).unwrap();
        assert_eq!(ea.values(), eb.values());
        let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(ea.scales()), bits(eb.scales()));
    }

    #[test]
    fn serde_surface_is_null_and_empty() {
        let p = store();
        let q = QuantParams::build(p.named_tensors());
        assert_eq!(q.to_value(), serde::Value::Null);
        let back = QuantParams::from_value(&q.to_value()).unwrap();
        assert_eq!(back.quantized_count(), 0);
    }
}
