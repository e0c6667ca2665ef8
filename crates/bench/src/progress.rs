//! Grid progress: the opt-in stderr status line (`ASAP_PROGRESS=1`).
//!
//! Counting is two relaxed atomic adds per cell, so the probe loop and
//! every pool worker tick without a lock; with the line off, a tick does
//! nothing at all. The status line is redrawn in place on stderr with
//! `\r`, rate-limited to ~10 Hz, erased (erase-to-EOL) when the grid
//! finishes or a `note!`/`warn!` needs the terminal (via the status-line
//! hook in `asap_sim::obs::log`), and never touches stdout. The ETA
//! prints `--:--` until at least one cell and ~100 ms have elapsed — no
//! `inf`/`NaN` nonsense at start-up.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use asap_sim::obs::log as obs_log;

/// Elapsed time below which rates/ETAs are considered unestimable.
const MIN_ESTIMATE_MS: u64 = 100;

/// Per-grid handle owned by `run_grid_with`: counts finished cells and
/// draws the status line when `ASAP_PROGRESS` is on.
pub(crate) struct Progress {
    draw: bool,
    total: usize,
    done: AtomicUsize,
    /// Cells served without simulating (cache hits + intra-grid dedup).
    warm: AtomicUsize,
    start: Instant,
    /// Milliseconds-since-start of the last redraw (`u64::MAX` = none
    /// yet); doubles as the redraw mutex via compare-exchange.
    last_ms: AtomicU64,
}

impl Progress {
    /// Reads `ASAP_PROGRESS` (`1`/`on`/`true`/`yes` enable drawing).
    pub fn from_env(total: usize) -> Self {
        let v = std::env::var("ASAP_PROGRESS").unwrap_or_default();
        let draw = matches!(v.trim(), "1" | "on" | "true" | "yes") && total > 0;
        Progress {
            draw,
            total,
            done: AtomicUsize::new(0),
            warm: AtomicUsize::new(0),
            start: Instant::now(),
            last_ms: AtomicU64::new(u64::MAX),
        }
    }

    /// Cells per second and seconds left after `done` cells; `None`
    /// until at least one cell and [`MIN_ESTIMATE_MS`] have passed.
    fn estimate(&self, done: usize) -> (Option<f64>, Option<f64>) {
        let elapsed_ms = self.start.elapsed().as_millis() as u64;
        let rate = (done > 0 && elapsed_ms >= MIN_ESTIMATE_MS)
            .then(|| done as f64 / (elapsed_ms as f64 / 1000.0));
        let eta_s = rate
            .filter(|r| *r > 1e-9)
            .map(|r| self.total.saturating_sub(done) as f64 / r);
        (rate, eta_s)
    }

    /// Marks one cell finished (`served_warm`: without simulating — a
    /// cache hit or an intra-grid dedup copy) and maybe redraws.
    pub fn tick(&self, served_warm: bool) {
        if !self.draw {
            return;
        }
        if served_warm {
            self.warm.fetch_add(1, Ordering::Relaxed);
        }
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let now_ms = self.start.elapsed().as_millis() as u64;
        let last = self.last_ms.load(Ordering::Relaxed);
        if done < self.total && last != u64::MAX && now_ms < last.saturating_add(100) {
            return;
        }
        // One worker wins the redraw; losers just move on.
        if self
            .last_ms
            .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        let (rate, eta) = self.estimate(done);
        let rate = rate.map_or_else(|| "--".to_string(), |r| format!("{r:.1}"));
        let eta = eta.map_or_else(|| "--:--".to_string(), |e| format!("{e:.0}s"));
        let hit_pct = 100.0 * self.warm.load(Ordering::Relaxed) as f64 / done as f64;
        // Erase-to-EOL after the text so a shorter redraw never leaves a
        // tail of the previous, longer line behind.
        eprint!(
            "\r[grid] {done}/{} cells  {rate} cells/s  ETA {eta}  cache {hit_pct:.0}% hit\x1b[K",
            self.total
        );
        obs_log::status_line_active(true);
    }

    /// Erases the status line so whatever stderr prints next (the
    /// run-cache summary, say) starts on a clean column.
    pub fn finish(&self) {
        if self.draw {
            obs_log::clear_status_line();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_guards_rate_and_eta_at_start() {
        let p = Progress::from_env(10);
        // Zero cells done: nothing estimable regardless of elapsed time.
        assert_eq!(p.estimate(0), (None, None));
        // Cells done but elapsed below the floor: still unestimable
        // (this is the zero-elapsed guard — no inf/NaN ETAs).
        if p.start.elapsed().as_millis() < u128::from(MIN_ESTIMATE_MS) {
            assert!(p.estimate(3).0.is_none());
        }

        // Backdate the start: now rate and ETA must materialize.
        let p = Progress {
            start: Instant::now() - std::time::Duration::from_secs(2),
            ..Progress::from_env(10)
        };
        let (rate, eta) = p.estimate(4);
        assert!(rate.expect("rate estimable") > 0.0);
        assert!(eta.expect("eta estimable") > 0.0);
        // All cells done: nothing left to wait for.
        assert_eq!(p.estimate(10).1, Some(0.0));
    }
}
