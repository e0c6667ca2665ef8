//! Small helpers for pointer-structured data in simulated PM.

use asap_core::machine::{Machine, ThreadCtx};
use asap_pmem::PmAddr;

/// The null persistent pointer.
pub const NULL: u64 = 0;

/// Reads the `i`-th 8-byte field of a record at `base`.
pub fn read_field(ctx: &mut ThreadCtx, base: PmAddr, i: u64) -> u64 {
    ctx.read_u64(base.offset(8 * i))
}

/// Writes the `i`-th 8-byte field of a record at `base`.
pub fn write_field(ctx: &mut ThreadCtx, base: PmAddr, i: u64, v: u64) {
    ctx.write_u64(base.offset(8 * i), v);
}

/// Interprets a field value as an optional pointer.
pub fn as_ptr(v: u64) -> Option<PmAddr> {
    (v != NULL).then_some(PmAddr(v))
}

/// Debug (timing-free) variant of [`read_field`] for verification walks.
pub fn debug_field(m: &mut Machine, base: PmAddr, i: u64) -> u64 {
    m.debug_read_u64(base.offset(8 * i))
}

/// Fills `len` bytes deterministically from `(key, tag)` — the payload
/// pattern used by the benchmarks so tests can validate values.
pub fn payload(key: u64, tag: u64, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    let mut s = PayloadStream::new(key, tag);
    v.resize(len, 0);
    s.fill(&mut v);
    v
}

/// Streaming generator of the [`payload`] byte sequence (xorshift64, 8
/// bytes per step), so hot-path writers can produce the pattern one cache
/// line at a time instead of materializing the whole value.
struct PayloadStream {
    x: u64,
    buf: [u8; 8],
    avail: usize,
}

impl PayloadStream {
    fn new(key: u64, tag: u64) -> Self {
        PayloadStream {
            x: key
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(tag.wrapping_mul(0xd1b5_4a32_d192_ed03))
                | 1,
            buf: [0; 8],
            avail: 0,
        }
    }

    /// The next word of the sequence.
    fn next_word(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    /// Writes the next `out.len()` bytes of the sequence into `out`: the
    /// buffered rest of the last word, then whole words straight from the
    /// generator, then the head of one more word, whose rest is buffered.
    fn fill(&mut self, out: &mut [u8]) {
        let head = self.avail.min(out.len());
        let from = 8 - self.avail;
        out[..head].copy_from_slice(&self.buf[from..from + head]);
        self.avail -= head;
        let mut words = out[head..].chunks_exact_mut(8);
        for w in &mut words {
            w.copy_from_slice(&self.next_word().to_le_bytes());
        }
        let tail = words.into_remainder();
        if !tail.is_empty() {
            self.buf = self.next_word().to_le_bytes();
            tail.copy_from_slice(&self.buf[..tail.len()]);
            self.avail = 8 - tail.len();
        }
    }
}

/// Batched sequential-store fast path for benchmark values: streams the
/// [`payload`] pattern into simulated PM one cache-line span at a time
/// through a stack buffer. The store sequence the machine sees is
/// byte-identical to `ctx.write_bytes(addr, &payload(key, tag, len))` —
/// same spans, same bytes, same latencies — but a multi-kilobyte value
/// update (the Fig. 7 large-value sweeps store runs of 32 consecutive
/// already-owned lines) no longer heap-allocates a `Vec` per operation.
pub fn write_payload(ctx: &mut ThreadCtx, addr: PmAddr, key: u64, tag: u64, len: usize) {
    let mut s = PayloadStream::new(key, tag);
    let mut span = [0u8; asap_pmem::LINE_BYTES as usize];
    let mut pos = 0usize;
    while pos < len {
        let a = addr.offset(pos as u64);
        let off = a.offset_in_line() as usize;
        let n = (len - pos).min(asap_pmem::LINE_BYTES as usize - off);
        s.fill(&mut span[..n]);
        ctx.write_bytes(a, &span[..n]);
        pos += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_core::machine::MachineConfig;
    use asap_core::scheme::SchemeKind;

    #[test]
    fn field_roundtrip() {
        let mut m = Machine::new(MachineConfig::small(SchemeKind::NoPersist, 1));
        let rec = m.pm_alloc(64).unwrap();
        m.run_thread(0, |ctx| {
            ctx.begin_region();
            write_field(ctx, rec, 0, 11);
            write_field(ctx, rec, 7, 77);
            assert_eq!(read_field(ctx, rec, 0), 11);
            assert_eq!(read_field(ctx, rec, 7), 77);
            ctx.end_region();
        });
        assert_eq!(debug_field(&mut m, rec, 7), 77);
    }

    #[test]
    fn null_pointers() {
        assert_eq!(as_ptr(NULL), None);
        assert_eq!(as_ptr(64), Some(PmAddr(64)));
    }

    /// The first `n` bytes of the sequence, generated a byte at a time:
    /// each xorshift64 word's 8 little-endian bytes in turn.
    fn bytewise(key: u64, tag: u64, n: usize) -> Vec<u8> {
        let mut x = PayloadStream::new(key, tag).x;
        (0..n)
            .map(|i| {
                if i % 8 == 0 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                }
                x.to_le_bytes()[i % 8]
            })
            .collect()
    }

    /// `fill` yields the byte-at-a-time sequence from every buffered
    /// offset for every span up to a line, and for 2 KB values split at
    /// line boundaries from every offset in a line, as `write_payload`
    /// splits them.
    #[test]
    fn fill_matches_the_bytewise_sequence() {
        let (key, tag) = (0x1234_5678, 7);
        for start in 0..8 {
            for span in 1..=64 {
                let want = bytewise(key, tag, start + span);
                let mut s = PayloadStream::new(key, tag);
                let mut got = vec![0u8; start + span];
                s.fill(&mut got[..start]);
                s.fill(&mut got[start..]);
                assert_eq!(got, want, "start {start}, span {span}");
            }
        }
        let want = bytewise(key, tag, 2048);
        for off in 0..64 {
            let mut s = PayloadStream::new(key, tag);
            let mut got = vec![0u8; 2048];
            let mut pos = 0;
            while pos < got.len() {
                let n = (got.len() - pos).min(64 - (off + pos) % 64);
                s.fill(&mut got[pos..pos + n]);
                pos += n;
            }
            assert_eq!(got, want, "offset {off}");
        }
    }

    #[test]
    fn payload_is_deterministic_and_distinct() {
        assert_eq!(payload(1, 2, 100), payload(1, 2, 100));
        assert_ne!(payload(1, 2, 100), payload(1, 3, 100));
        assert_ne!(payload(1, 2, 100), payload(2, 2, 100));
        assert_eq!(payload(5, 0, 0).len(), 0);
        assert_eq!(payload(5, 0, 13).len(), 13);
    }
}
