//! Append-only NDJSON run-event stream (`ASAP_EVENTS=<path|stderr>`).
//!
//! Schema `asap-events-v1`: one JSON object per line, each carrying the
//! record kind (`ev`), a process-wide ordering key (`seq`), and wall
//! time in microseconds since process start (`t_us`). The first line of
//! every stream is a `run_meta` header record describing the producer:
//! the schema version, the build fingerprint of the running executable,
//! the host worker count, and every `ASAP_*` knob set in the
//! environment. The bench harness then emits `grid_start`,
//! `cell_start`, `cell_end`, `cache_evict`, `wallclock_written` and
//! `grid_end` records; every record is guaranteed to parse with
//! [`crate::json::parse`] (tests hold this line by line).
//!
//! Durability posture, in the spirit of user-space WAL reliability work:
//! the stream is *append-only* and each record is written with a single
//! `write` of one `\n`-terminated line to a file opened `O_APPEND`, so
//! concurrent emitters (the worker-pool threads, or several processes
//! pointed at one file) interleave whole lines, never bytes. A consumer
//! that tails the file sees only complete records plus at most one
//! growing tail line. Within one process, `seq` is allocated under the
//! sink lock, so file order and `seq` order agree.
//!
//! Determinism: records are ordered by completion, not by spec order, so
//! two runs at different `ASAP_JOBS` produce the same multiset of
//! records up to the volatile keys `seq`, `t_us` and `host_us` — the
//! comparison tests strip exactly those and sort. Nothing here ever
//! writes to stdout.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json;

/// The stream schema identifier, carried by every `run_meta` and
/// `grid_start` record.
pub const SCHEMA: &str = "asap-events-v1";

enum Target {
    Stderr,
    File(std::fs::File),
}

/// `None` until first use or an explicit [`set_sink`]; the inner
/// `Option` is the resolved sink (`None` = events off).
struct SinkState {
    resolved: bool,
    target: Option<Target>,
    /// Whether the `run_meta` header has been written to the current
    /// stream. Reset by [`set_sink`], so a re-pointed stream gets its own
    /// header.
    header_done: bool,
}

fn state() -> &'static Mutex<SinkState> {
    static S: OnceLock<Mutex<SinkState>> = OnceLock::new();
    S.get_or_init(|| {
        Mutex::new(SinkState {
            resolved: false,
            target: None,
            header_done: false,
        })
    })
}

fn epoch() -> Instant {
    static T0: OnceLock<Instant> = OnceLock::new();
    *T0.get_or_init(Instant::now)
}

fn resolve_env(s: &mut SinkState) {
    if s.resolved {
        return;
    }
    s.resolved = true;
    s.target = match std::env::var("ASAP_EVENTS") {
        Ok(v) if v.is_empty() => None,
        Ok(v) if v == "stderr" => Some(Target::Stderr),
        Ok(v) => open_target(Path::new(&v)),
        Err(_) => None,
    };
}

fn open_target(path: &Path) -> Option<Target> {
    match std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)
    {
        Ok(f) => Some(Target::File(f)),
        Err(e) => {
            // A requested event stream that cannot open is an error
            // worth one line.
            eprintln!("events: could not open {}: {e}", path.display());
            None
        }
    }
}

/// Points the stream at `path` (`None` turns it off), overriding the
/// environment. Primarily for tests; figure binaries just set
/// `ASAP_EVENTS`. The next record emitted to a fresh sink is preceded
/// by a new `run_meta` header.
pub fn set_sink(path: Option<&Path>) {
    let mut s = state().lock().unwrap();
    s.resolved = true;
    s.header_done = false;
    s.target = path.and_then(|p| {
        if p == Path::new("stderr") {
            Some(Target::Stderr)
        } else {
            open_target(p)
        }
    });
}

/// Whether the file sink is configured. Cheap enough to gate per-cell
/// record construction; `false` means [`Event::emit`] is a no-op.
pub fn enabled() -> bool {
    let mut s = state().lock().unwrap();
    resolve_env(&mut s);
    s.target.is_some()
}

/// The `run_meta` header line: schema version, build fingerprint,
/// host worker count, and every `ASAP_*` knob present in the
/// environment. `jobs` mirrors the harness default (explicit
/// `ASAP_JOBS`, else available parallelism).
fn run_meta_line(seq: u64, t_us: u64) -> String {
    let build =
        crate::fingerprint::build_fingerprint().map_or_else(|| "unknown".into(), |f| f.hex());
    let jobs = match std::env::var("ASAP_JOBS") {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut knobs = String::new();
    for (i, name) in crate::config::KNOWN_ASAP_ENV
        .iter()
        .filter(|n| std::env::var(n).is_ok())
        .enumerate()
    {
        let v = std::env::var(name).unwrap_or_default();
        if i > 0 {
            knobs.push(',');
        }
        knobs.push_str(&format!(
            "\"{}\":\"{}\"",
            json::escape(name),
            json::escape(&v)
        ));
    }
    format!(
        "{{\"ev\":\"run_meta\",\"seq\":{seq},\"t_us\":{t_us},\"schema\":\"{SCHEMA}\",\
         \"build\":\"{build}\",\"jobs\":{jobs},\"knobs\":{{{knobs}}}}}\n"
    )
}

fn next_seq() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    SEQ.fetch_add(1, Ordering::Relaxed)
}

/// One NDJSON record under construction. Build with [`Event::new`], add
/// fields, then [`emit`](Event::emit) — the record is written as a
/// single line, or dropped silently when the stream is off. `seq` and
/// `t_us` are stamped at emit time, under the sink lock, so they agree
/// with the order records land in the stream.
pub struct Event {
    ev: String,
    tail: String,
}

impl Event {
    /// Starts a record of kind `ev`.
    pub fn new(ev: &str) -> Event {
        Event {
            ev: json::escape(ev),
            tail: String::new(),
        }
    }

    /// Adds a string field.
    pub fn field_str(mut self, key: &str, v: &str) -> Self {
        self.tail.push_str(&format!(
            ",\"{}\":\"{}\"",
            json::escape(key),
            json::escape(v)
        ));
        self
    }

    /// Adds an integer field.
    pub fn field_u64(mut self, key: &str, v: u64) -> Self {
        self.tail
            .push_str(&format!(",\"{}\":{v}", json::escape(key)));
        self
    }

    /// Adds a float field (non-finite values emit as `null`).
    pub fn field_f64(mut self, key: &str, v: f64) -> Self {
        self.tail
            .push_str(&format!(",\"{}\":{}", json::escape(key), json::num(v)));
        self
    }

    /// Closes the record and appends it to the file sink as one line. A
    /// write failure warns once per process and drops the file sink — the
    /// event stream is an observer, never a reason to fail a run.
    pub fn emit(self) {
        let mut s = state().lock().unwrap();
        resolve_env(&mut s);
        if s.target.is_none() {
            return;
        }
        if !s.header_done {
            s.header_done = true;
            let header = run_meta_line(next_seq(), epoch().elapsed().as_micros() as u64);
            write_line(&mut s, &header);
        }
        let line = format!(
            "{{\"ev\":\"{}\",\"seq\":{},\"t_us\":{}{}}}\n",
            self.ev,
            next_seq(),
            epoch().elapsed().as_micros() as u64,
            self.tail
        );
        write_line(&mut s, &line);
    }
}

/// Writes one line to the resolved file sink (no-op when off).
fn write_line(s: &mut SinkState, line: &str) {
    let Some(target) = s.target.as_mut() else {
        return;
    };
    let res = match target {
        Target::Stderr => std::io::stderr().lock().write_all(line.as_bytes()),
        Target::File(f) => f.write_all(line.as_bytes()),
    };
    if let Err(e) = res {
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| eprintln!("events: write failed, stream dropped: {e}"));
        s.target = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test exercising the whole lifecycle: the sink is process-global
    /// state, so splitting these into parallel #[test] fns would race.
    #[test]
    fn records_are_parseable_ndjson_lines_with_run_meta_header() {
        let path =
            std::env::temp_dir().join(format!("asap-obs-events-{}.ndjson", std::process::id()));
        let _ = std::fs::remove_file(&path);
        set_sink(Some(&path));
        assert!(enabled());
        Event::new("grid_start")
            .field_str("schema", SCHEMA)
            .field_u64("cells", 3)
            .emit();
        Event::new("cell_end")
            .field_str("fp", "deadbeef")
            .field_str("outcome", "completed")
            .field_u64("host_us", 12)
            .field_f64("ratio", 0.5)
            .field_f64("bad", f64::NAN)
            .emit();
        set_sink(None);
        // Emitting while off is a silent no-op.
        Event::new("cell_end").field_u64("x", 1).emit();

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "run_meta header + 2 records");
        for line in &lines {
            json::parse(line).expect("every record parses");
        }
        // The stream starts with the run_meta header.
        let meta = json::parse(lines[0]).unwrap();
        assert_eq!(
            meta.get("ev").and_then(json::Value::as_str),
            Some("run_meta")
        );
        assert_eq!(
            meta.get("schema").and_then(json::Value::as_str),
            Some(SCHEMA)
        );
        assert!(meta.get("build").and_then(json::Value::as_str).is_some());
        assert!(meta.get("jobs").and_then(json::Value::as_u64).is_some());
        assert!(meta.get("knobs").is_some());
        let first = json::parse(lines[1]).unwrap();
        assert_eq!(
            first.get("ev").and_then(json::Value::as_str),
            Some("grid_start")
        );
        assert!(first.get("seq").and_then(json::Value::as_u64).is_some());
        assert!(first.get("t_us").and_then(json::Value::as_u64).is_some());
        let second = json::parse(lines[2]).unwrap();
        assert_eq!(second.get("bad"), Some(&json::Value::Null));
        // seq agrees with stream order.
        assert!(
            second.get("seq").and_then(json::Value::as_u64)
                > first.get("seq").and_then(json::Value::as_u64)
        );
        assert!(
            first.get("seq").and_then(json::Value::as_u64)
                > meta.get("seq").and_then(json::Value::as_u64)
        );

        // Re-pointing appends rather than truncating (append-only log),
        // and the fresh stream gets its own header.
        set_sink(Some(&path));
        Event::new("grid_end").emit();
        set_sink(None);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 5);
        let reheader = json::parse(text.lines().nth(3).unwrap()).unwrap();
        assert_eq!(
            reheader.get("ev").and_then(json::Value::as_str),
            Some("run_meta")
        );
        assert!(!enabled());
        let _ = std::fs::remove_file(&path);
    }
}
