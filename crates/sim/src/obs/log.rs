//! Stderr logging for the host-side harnesses.
//!
//! Use through the [`obs::note!`](crate::obs_note) and
//! [`obs::warn!`](crate::obs_warn) macros, which format exactly like
//! `eprintln!` but first erase an active `ASAP_PROGRESS` status line, so
//! a full log line never lands on top of stale progress text. Both write
//! to stderr only — bench stdout stays byte-identical whatever they print.

use std::sync::atomic::{AtomicBool, Ordering};

/// Whether a `\r`-style status line (the `ASAP_PROGRESS` ticker) is
/// currently occupying the terminal's last stderr line.
static STATUS_ACTIVE: AtomicBool = AtomicBool::new(false);

/// Marks a transient `\r` status line as present (`true`) or gone
/// (`false`) on stderr. While present, [`clear_status_line`] — called by
/// the `note!`/`warn!` macros before printing — erases it so a full log
/// line never lands on top of stale progress text.
pub fn status_line_active(active: bool) {
    STATUS_ACTIVE.store(active, Ordering::Release);
}

/// Erases the current status line (carriage return + erase-to-EOL) if
/// one is active. Cheap no-op otherwise; safe from any thread.
///
/// Goes through `eprint!` like the ticker that drew the line, so the
/// test harness captures the escape along with the test's other output
/// instead of writing it into the harness's own result lines.
pub fn clear_status_line() {
    if STATUS_ACTIVE.swap(false, Ordering::AcqRel) {
        eprint!("\r\x1b[K");
    }
}

/// A status note on stderr. Formats like `eprintln!`.
#[macro_export]
macro_rules! obs_note {
    ($($arg:tt)*) => {{
        $crate::obs::log::clear_status_line();
        eprintln!($($arg)*);
    }};
}

/// A warning on stderr. Formats like `eprintln!`.
#[macro_export]
macro_rules! obs_warn {
    ($($arg:tt)*) => {{
        $crate::obs::log::clear_status_line();
        eprintln!($($arg)*);
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_line_flag_clears_once() {
        status_line_active(true);
        clear_status_line(); // swaps the flag off and erases
        assert!(!STATUS_ACTIVE.load(Ordering::Acquire));
        clear_status_line(); // idempotent no-op
        assert!(!STATUS_ACTIVE.load(Ordering::Acquire));
    }

    #[test]
    fn macros_compile_with_format_arguments() {
        crate::obs_note!("test note {} {}", 1, "x");
        crate::obs_warn!("test warn {:?}", (1, 2));
    }
}
