//! Stable structural fingerprints for plan-cache keys.
//!
//! The `qsync-serve` plan cache is content-addressed: two requests that would
//! produce the same `PrecisionPlan` must map to the same key, and any change
//! that could alter the plan must change the key. This module provides the
//! streaming 128-bit FNV-1a hasher the fingerprints are built on, plus a
//! canonical hash over the vendored serde [`Value`] model so that any
//! serializable structure can contribute to a fingerprint without ad-hoc field
//! encoding.
//!
//! The hash is a *fingerprint*, not a cryptographic digest: collision
//! resistance is what a 128-bit FNV pair provides, which is far beyond what a
//! plan cache holding at most millions of entries needs. It is deliberately
//! independent of `std::collections::hash_map::DefaultHasher`, whose output is
//! not stable across Rust releases — cache keys must stay valid across
//! restarts and recompiles.

use serde::Value;

/// Streaming 128-bit fingerprint: two independent 64-bit FNV-1a lanes.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    lo: u64,
    hi: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Second-lane offset: the standard offset XORed with an arbitrary odd pattern
/// so the two lanes decorrelate from the first byte on.
const FNV_OFFSET_HI: u64 = FNV_OFFSET ^ 0x9E37_79B9_7F4A_7C15;

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint { lo: FNV_OFFSET, hi: FNV_OFFSET_HI }
    }
}

impl Fingerprint {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb raw bytes.
    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.lo = (self.lo ^ b as u64).wrapping_mul(FNV_PRIME);
            self.hi = (self.hi ^ b.rotate_left(3) as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a length-prefixed string (prefixing prevents concatenation
    /// ambiguity between adjacent fields).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Absorb a `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorb an `f64` via its bit pattern (`-0.0` normalised to `0.0`).
    pub fn write_f64(&mut self, v: f64) {
        let v = if v == 0.0 { 0.0 } else { v };
        self.write_u64(v.to_bits());
    }

    /// Absorb a canonical encoding of a serde [`Value`] tree.
    fn write_value(&mut self, value: &Value) {
        match value {
            Value::Null => self.write_bytes(b"n"),
            Value::Bool(b) => {
                self.write_bytes(if *b { b"t" } else { b"f" });
            }
            Value::Number(n) => {
                self.write_bytes(b"d");
                self.write_f64(n.as_f64());
            }
            Value::String(s) => {
                self.write_bytes(b"s");
                self.write_str(s);
            }
            Value::Array(items) => {
                self.write_bytes(b"a");
                self.write_u64(items.len() as u64);
                for item in items {
                    self.write_value(item);
                }
            }
            Value::Object(pairs) => {
                self.write_bytes(b"o");
                self.write_u64(pairs.len() as u64);
                for (k, v) in pairs {
                    self.write_str(k);
                    self.write_value(v);
                }
            }
        }
    }

    /// Absorb any serializable structure via its canonical [`Value`] tree.
    pub fn write_serialize<T: serde::Serialize + ?Sized>(&mut self, value: &T) {
        self.write_value(&value.to_value());
    }

    /// Finish, producing the 128-bit fingerprint.
    pub fn finish(&self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }

    /// Finish, producing the canonical 32-hex-digit key string.
    pub fn finish_hex(&self) -> String {
        format!("{:032x}", self.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_streams_agree() {
        let mut a = Fingerprint::new();
        let mut b = Fingerprint::new();
        for f in [&mut a, &mut b] {
            f.write_str("hello");
            f.write_u64(42);
            f.write_f64(2.5);
        }
        assert_eq!(a.finish(), b.finish());
        assert_eq!(a.finish_hex().len(), 32);
    }

    #[test]
    fn field_boundaries_matter() {
        let mut a = Fingerprint::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fingerprint::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn value_trees_hash_structurally() {
        use serde::Serialize;
        let mut a = Fingerprint::new();
        a.write_serialize(&vec![1u64, 2, 3]);
        let mut b = Fingerprint::new();
        b.write_value(&vec![1u64, 2, 3].to_value());
        assert_eq!(a.finish(), b.finish());
        let mut c = Fingerprint::new();
        c.write_serialize(&vec![1u64, 2, 4]);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn negative_zero_is_normalised() {
        let mut a = Fingerprint::new();
        a.write_f64(0.0);
        let mut b = Fingerprint::new();
        b.write_f64(-0.0);
        assert_eq!(a.finish(), b.finish());
    }
}
