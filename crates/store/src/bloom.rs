//! Bloom filter for sorted-run point-read pruning.
//!
//! Classic double hashing (Kirsch–Mitzenmacher): two independent 64-bit
//! FNV-1a-style hashes `h1`, `h2` generate `k` probe positions
//! `h1 + i·h2`. At the default 10 bits per key with `k = 7` the false
//! positive rate is ≈ 0.8%, which is plenty to keep cold runs off the
//! read path. No false negatives, ever — that is what the property
//! tests pin down.

use crate::error::StoreError;
use std::path::Path;

/// Default bits budget per key.
pub const DEFAULT_BITS_PER_KEY: usize = 10;

/// A fixed-size bloom filter over byte-string keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bloom {
    bits: Vec<u8>,
    k: u32,
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Bloom {
    /// Build a filter sized for `n_keys` at `bits_per_key`.
    pub fn with_capacity(n_keys: usize, bits_per_key: usize) -> Bloom {
        let nbits = (n_keys.max(1) * bits_per_key.max(1)).max(64);
        // k ≈ bits_per_key · ln 2; clamp to a sane range.
        let k = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 16);
        Bloom {
            bits: vec![0u8; nbits.div_ceil(8)],
            k,
        }
    }

    /// Insert a key.
    pub fn insert(&mut self, key: &[u8]) {
        let (h1, h2) = (fnv1a(key, 0), fnv1a(key, 0x9E37_79B9_7F4A_7C15));
        let nbits = (self.bits.len() * 8) as u64;
        for i in 0..u64::from(self.k) {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % nbits;
            if let Some(byte) = self.bits.get_mut((bit / 8) as usize) {
                *byte |= 1 << (bit % 8);
            }
        }
    }

    /// True when the key *may* be present; false means definitely not.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let (h1, h2) = (fnv1a(key, 0), fnv1a(key, 0x9E37_79B9_7F4A_7C15));
        let nbits = (self.bits.len() * 8) as u64;
        if nbits == 0 {
            return true;
        }
        for i in 0..u64::from(self.k) {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % nbits;
            let set = self
                .bits
                .get((bit / 8) as usize)
                .is_some_and(|byte| byte & (1 << (bit % 8)) != 0);
            if !set {
                return false;
            }
        }
        true
    }

    /// Serialise as `[k: u32 LE][bit bytes]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.bits.len());
        out.extend_from_slice(&self.k.to_le_bytes());
        out.extend_from_slice(&self.bits);
        out
    }

    /// Decode an [`encode`](Bloom::encode)d filter.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] for a truncated or implausible
    /// encoding (`file`/`offset` locate the filter inside its run file).
    pub fn decode(bytes: &[u8], file: &Path, offset: u64) -> Result<Bloom, StoreError> {
        let Some(head) = bytes.get(..4) else {
            return Err(StoreError::corrupt(file, offset, "bloom filter truncated"));
        };
        let mut kb = [0u8; 4];
        kb.copy_from_slice(head);
        let k = u32::from_le_bytes(kb);
        if k == 0 || k > 64 {
            return Err(StoreError::corrupt(
                file,
                offset,
                format!("implausible bloom probe count {k}"),
            ));
        }
        let bits = bytes.get(4..).unwrap_or_default().to_vec();
        if bits.is_empty() {
            return Err(StoreError::corrupt(file, offset, "empty bloom filter"));
        }
        Ok(Bloom { bits, k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let keys: Vec<Vec<u8>> = (0..500)
            .map(|i| format!("session:{i}").into_bytes())
            .collect();
        let mut bloom = Bloom::with_capacity(keys.len(), DEFAULT_BITS_PER_KEY);
        for k in &keys {
            bloom.insert(k);
        }
        for k in &keys {
            assert!(bloom.may_contain(k));
        }
    }

    #[test]
    fn mostly_rejects_absent_keys() {
        let mut bloom = Bloom::with_capacity(500, DEFAULT_BITS_PER_KEY);
        for i in 0..500 {
            bloom.insert(format!("present:{i}").as_bytes());
        }
        let false_positives = (0..1000)
            .filter(|i| bloom.may_contain(format!("absent:{i}").as_bytes()))
            .count();
        // ~0.8% expected; 5% is a generous deterministic bound.
        assert!(false_positives < 50, "false positives: {false_positives}");
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut bloom = Bloom::with_capacity(100, 10);
        for i in 0..100 {
            bloom.insert(format!("k{i}").as_bytes());
        }
        let bytes = bloom.encode();
        let back = Bloom::decode(&bytes, Path::new("run"), 0).unwrap();
        assert_eq!(back, bloom);
    }

    #[test]
    fn decode_rejects_garbage() {
        let p = Path::new("run");
        assert!(Bloom::decode(&[], p, 0).unwrap_err().is_corrupt());
        assert!(Bloom::decode(&[1, 2], p, 0).unwrap_err().is_corrupt());
        // k = 0 invalid
        assert!(Bloom::decode(&[0, 0, 0, 0, 0xFF], p, 0)
            .unwrap_err()
            .is_corrupt());
        // k too large
        assert!(Bloom::decode(&[200, 0, 0, 0, 0xFF], p, 0)
            .unwrap_err()
            .is_corrupt());
    }
}
