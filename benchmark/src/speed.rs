//! Host-speed probe: a fixed computation timed right before every op, so
//! op times can be scaled to one reference host speed.
//!
//! On a shared machine the host's speed drifts by tens of percent over
//! seconds to minutes, and whole runs can fall into a slow stretch. The
//! simulator's hash-map and allocation heavy code feels that drift; a pure
//! ALU loop barely does. This probe does the same kind of work as the
//! simulator, but its code and data never change with the repository, so
//! `op seconds × REFERENCE_SECS / probe seconds` measures the simulator and
//! not the neighbours.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The probe's timed pass on the host the benchmark was defined on (a
/// 2-CPU Intel Xeon VM) in a quiet stretch. Scaled times read as host
/// seconds at that speed.
pub const REFERENCE_SECS: f64 = 3.2e-3;

/// Inserts into and looks up a 4096-bucket hash map of short vectors:
/// L2-resident data, hashing, and small allocations.
fn churn(n: u64) -> u64 {
    let mut map: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 7u64;
    let mut sum = 0;
    for i in 0..n {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let bucket = map.entry((x >> 40) % 4096).or_default();
        bucket.push(i);
        if bucket.len() > 8 {
            bucket.clear();
        }
        sum += map.get(&((x >> 20) % 4096)).map_or(0, |v| v.len() as u64);
    }
    sum
}

/// Seconds the probe's timed pass takes now. An untimed pass first warms
/// the caches, so what the previous op left in them does not count.
pub fn probe() -> f64 {
    black_box(churn(black_box(20_000)));
    let t0 = Instant::now();
    black_box(churn(black_box(80_000)));
    t0.elapsed().as_secs_f64()
}
