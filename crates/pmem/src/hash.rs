//! A fast, deterministic hasher for address-keyed maps.
//!
//! The simulator's hottest maps are keyed by [`LineAddr`]/[`PmAddr`] — one
//! `u64` each. The standard library's default SipHash is DoS-resistant but
//! costs far more than the multiply-xor fold below, and its per-process
//! random seed is pointless here: keys come from the deterministic
//! simulation itself, never from an adversary. This hasher is seed-free, so
//! map behaviour is identical across processes — a property the parallel
//! figure harness relies on when asserting serial and parallel runs agree.
//!
//! Every hashed map or set in simulated state (`asap-core`, `asap-mem`,
//! `asap-pmem` and `asap-sim` outside tests) is an [`AddrMap`] or an
//! [`AddrSet`]: a std `HashMap`'s `RandomState` reseeds in every process,
//! so it costs a SipHash per lookup and would make any iteration order
//! that reached simulated state differ run to run. A tier-1 source scan
//! (`crates/bench/tests/sim_state_maps.rs`) fails on a std `HashMap`,
//! `HashSet` or `RandomState` there; this module, which defines the
//! aliases, is its only exemption. Even seed-free, iteration order follows
//! the table's capacity history, so only use these maps where it does not
//! reach simulated behaviour (lookups, membership, order-free folds).
//!
//! [`LineAddr`]: crate::addr::LineAddr
//! [`PmAddr`]: crate::addr::PmAddr

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher for small fixed-size keys (Fibonacci multiplier,
/// finalized with an avalanche shift). Deterministic and seed-free.
#[derive(Clone, Copy, Debug, Default)]
pub struct AddrHasher(u64);

const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for AddrHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback for composite keys: fold 8 bytes at a time.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(FIB);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Spread the high (well-mixed) bits into the low bits HashMap masks.
        self.0 ^ (self.0 >> 32)
    }
}

/// `BuildHasher` for [`AddrHasher`].
pub type AddrBuildHasher = BuildHasherDefault<AddrHasher>;

/// A `HashMap` using the deterministic address hasher.
pub type AddrMap<K, V> = HashMap<K, V, AddrBuildHasher>;

/// A `HashSet` using the deterministic address hasher.
pub type AddrSet<K> = HashSet<K, AddrBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;

    #[test]
    fn map_roundtrip_and_determinism() {
        let mut m: AddrMap<LineAddr, u64> = AddrMap::default();
        for i in 0..10_000u64 {
            m.insert(LineAddr(i * 7), i);
        }
        for i in 0..10_000u64 {
            assert_eq!(m.get(&LineAddr(i * 7)), Some(&i));
        }
        assert_eq!(m.get(&LineAddr(3)), None);
    }

    #[test]
    fn hash_is_seed_free_and_spreads() {
        let h = |v: u64| {
            let mut hh = AddrHasher::default();
            hh.write_u64(v);
            hh.finish()
        };
        // Stable across invocations (no RandomState) and non-trivial.
        assert_eq!(h(42), h(42));
        assert_ne!(h(0), h(1));
        // Dense low bits must not collide in the low output bits.
        let low: std::collections::HashSet<u64> = (0..256).map(|v| h(v) & 0xff).collect();
        assert!(low.len() > 128, "low-bit spread too weak: {}", low.len());
    }

    #[test]
    fn generic_write_path_matches_u64_path() {
        let mut a = AddrHasher::default();
        a.write(&7u64.to_le_bytes());
        let mut b = AddrHasher::default();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }
}
