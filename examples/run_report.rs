//! Self-contained HTML run report: one telemetry-enabled simulation,
//! rendered as a single file with inline-SVG sparklines for every
//! occupancy series, the per-region stall breakdown, the hottest PM
//! lines, and the region commit timeline. No external assets, no
//! JavaScript — open it anywhere, attach it to a bug report.
//!
//! ```sh
//! cargo run --release --example run_report
//! ```
//!
//! Environment knobs:
//!
//! - `ASAP_OPS` / `ASAP_THREADS` — workload scale (defaults 40 / 2)
//! - `ASAP_REPORT_OUT` — output path (default `target/run_report.html`)
//!
//! Telemetry is forced on (this report *is* the telemetry consumer).
//! Every JSON export consumed here is round-tripped through the in-tree
//! parser first — parse, re-emit, re-parse, compare — so this example
//! doubles as an end-to-end validation of the exporters; it exits
//! nonzero if any export fails to round-trip.

use std::fmt::Write as _;
use std::process::ExitCode;

use asap_core::scheme::SchemeKind;
use asap_sim::json::{self, Value};
use asap_sim::obs::metrics;
use asap_sim::TelemetrySettings;
use asap_workloads::{run, BenchId, RunResult, WorkloadSpec};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses `label` JSON, re-emits it canonically, parses that again, and
/// requires the two values to be equal. Returns the parsed value.
fn validate_roundtrip(label: &str, text: &str) -> Result<Value, String> {
    let v = json::parse(text).map_err(|e| format!("{label}: {e}"))?;
    let again =
        json::parse(&v.to_json()).map_err(|e| format!("{label}: re-emitted JSON broken: {e}"))?;
    if v != again {
        return Err(format!("{label}: JSON round-trip changed the value"));
    }
    Ok(v)
}

fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// An inline-SVG sparkline for one series: a polyline over the sample
/// points, scaled into a fixed 600x60 box, with the peak value printed.
fn sparkline(times: &[f64], values: &[f64]) -> String {
    const W: f64 = 600.0;
    const H: f64 = 60.0;
    if times.is_empty() {
        return "<em>no samples</em>".into();
    }
    let t0 = times[0];
    let t1 = times[times.len() - 1].max(t0 + 1.0);
    let vmax = values.iter().cloned().fold(0.0_f64, f64::max).max(1.0);
    let mut pts = String::new();
    for (t, v) in times.iter().zip(values) {
        let x = (t - t0) / (t1 - t0) * W;
        let y = H - (v / vmax) * (H - 4.0) - 2.0;
        let _ = write!(pts, "{x:.1},{y:.1} ");
    }
    format!(
        "<svg width=\"{W}\" height=\"{H}\" viewBox=\"0 0 {W} {H}\">\
         <polyline points=\"{}\" fill=\"none\" stroke=\"#2563eb\" stroke-width=\"1.5\"/>\
         </svg> <span class=\"peak\">peak {vmax:.0}</span>",
        pts.trim_end()
    )
}

fn build_report(
    r: &RunResult,
    ts: &Value,
    lc: &Value,
    metrics_snap: &Value,
) -> Result<String, String> {
    let mut h = String::new();
    h.push_str(
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">\
         <title>ASAP run report</title>\n<style>\
         body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;max-width:72em;color:#111}\
         h1{font-size:1.4em} h2{font-size:1.1em;margin-top:2em;\
         border-bottom:1px solid #ddd;padding-bottom:.2em}\
         table{border-collapse:collapse} td,th{padding:.2em .8em;\
         border:1px solid #ddd;text-align:right} th{background:#f5f5f5}\
         td:first-child,th:first-child{text-align:left}\
         .peak{color:#666;font-size:.85em}\
         .series{margin:.6em 0} .series b{display:inline-block;min-width:12em}\
         </style></head><body>\n",
    );

    let spec = &r.spec;
    let _ = writeln!(
        h,
        "<h1>ASAP run report — {} / {} </h1>\n\
         <p>{} threads, {} ops/thread, {}-byte payloads, seed {:#x}. \
         {} transactions in {} cycles ({:.3} tx/kcycle); {} PM media writes; \
         drained at cycle {}.</p>",
        html_escape(spec.bench.label()),
        html_escape(&spec.scheme.to_string()),
        spec.threads,
        spec.ops_per_thread,
        spec.value_bytes,
        spec.seed,
        r.tx,
        r.exec_cycles,
        r.throughput,
        r.pm_writes,
        r.drained_cycles,
    );

    // --- Occupancy sparklines --------------------------------------------
    let period = ts.get("period").and_then(Value::as_f64).unwrap_or(0.0);
    let decim = ts.get("decimations").and_then(Value::as_f64).unwrap_or(0.0);
    let times: Vec<f64> = ts
        .get("t")
        .and_then(Value::as_array)
        .ok_or("timeseries: missing t")?
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    let series = ts
        .get("series")
        .and_then(Value::as_object)
        .ok_or("timeseries: missing series")?;
    let _ = writeln!(
        h,
        "<h2>Occupancy over virtual time</h2>\n\
         <p>{} samples, final period {} cycles ({} decimations).</p>",
        times.len(),
        period,
        decim
    );
    for (name, vals) in series {
        let vals: Vec<f64> = vals
            .as_array()
            .ok_or("timeseries: series not an array")?
            .iter()
            .filter_map(Value::as_f64)
            .collect();
        let _ = writeln!(
            h,
            "<div class=\"series\"><b>{}</b> {}</div>",
            html_escape(name),
            sparkline(&times, &vals)
        );
    }

    // --- Stall breakdown --------------------------------------------------
    h.push_str(
        "<h2>Mean cycles per region</h2>\n<table><tr><th>component</th><th>cycles</th></tr>",
    );
    for (label, v) in [
        ("compute", r.stalls.compute),
        ("log full", r.stalls.log_full),
        ("WPQ backpressure", r.stalls.wpq_backpressure),
        ("dependency wait", r.stalls.dependency_wait),
        ("commit wait", r.stalls.commit_wait),
        ("total", r.stalls.total()),
    ] {
        let _ = write!(h, "<tr><td>{label}</td><td>{v:.1}</td></tr>");
    }
    h.push_str("</table>\n");

    // --- Hottest PM lines -------------------------------------------------
    h.push_str("<h2>Hottest PM lines</h2>\n<table><tr><th>line</th><th>media writes</th></tr>");
    for (line, n) in &r.hot_lines {
        let _ = write!(h, "<tr><td>{line:#x}</td><td>{n}</td></tr>");
    }
    h.push_str("</table>\n");

    // --- Commit timeline --------------------------------------------------
    let commits = lc
        .get("commits")
        .and_then(Value::as_array)
        .ok_or("lifecycle: missing commits")?;
    let audited = lc.get("audited").and_then(Value::as_f64).unwrap_or(0.0);
    let dropped = lc.get("dropped").and_then(Value::as_f64).unwrap_or(0.0);
    let _ = write!(
        h,
        "<h2>Region commit timeline</h2>\n\
         <p>{} commits audited against the dependency DAG ({} evicted \
         records); first {} shown.</p>\n\
         <table><tr><th>#</th><th>region</th><th>commit cycle</th></tr>",
        audited,
        dropped,
        commits.len().min(64)
    );
    for (i, c) in commits.iter().take(64).enumerate() {
        let pair = c.as_array().ok_or("lifecycle: commit not a pair")?;
        let rid = pair.first().and_then(Value::as_str).unwrap_or("?");
        let at = pair.get(1).and_then(Value::as_f64).unwrap_or(0.0);
        let _ = write!(
            h,
            "<tr><td>{}</td><td>{}</td><td>{at:.0}</td></tr>",
            i + 1,
            html_escape(rid)
        );
    }
    h.push_str("</table>\n");

    // --- Host profile -----------------------------------------------------
    h.push_str(
        "<h2>Host profile</h2>\n\
         <p>What the <em>host</em> side of this process did (virtual-time \
         results are unaffected): the process-global metrics registry.</p>\n",
    );
    for (kind, unit) in [("counters", ""), ("gauges", " (max)")] {
        let Some(map) = metrics_snap.get(kind).and_then(Value::as_object) else {
            continue;
        };
        if map.is_empty() {
            continue;
        }
        let _ = write!(
            h,
            "<h3>{kind}{unit}</h3>\n<table><tr><th>name</th><th>value</th></tr>"
        );
        for (name, v) in map {
            let _ = write!(
                h,
                "<tr><td>{}</td><td>{}</td></tr>",
                html_escape(name),
                v.as_u64().unwrap_or(0)
            );
        }
        h.push_str("</table>\n");
    }

    h.push_str("</body></html>\n");
    Ok(h)
}

fn main() -> ExitCode {
    let spec = WorkloadSpec::new(BenchId::Hm, SchemeKind::Asap)
        .with_threads(env_u64("ASAP_THREADS", 2) as u32)
        .with_ops(env_u64("ASAP_OPS", 40))
        .with_telemetry(TelemetrySettings::enabled());
    let r = run(&spec);

    // Validate every export through the in-tree parser before rendering.
    let validated = (|| -> Result<(Value, Value, Value), String> {
        validate_roundtrip("stats", &r.stats.to_json())?;
        let ts = validate_roundtrip("timeseries", r.timeseries.as_deref().unwrap_or("null"))?;
        let lc = validate_roundtrip("lifecycle", r.lifecycle.as_deref().unwrap_or("null"))?;
        validate_roundtrip(
            "telemetry object",
            &r.telemetry_json().ok_or("telemetry object missing")?,
        )?;
        let snap = validate_roundtrip("metrics", &metrics::snapshot_json())?;
        Ok((ts, lc, snap))
    })();
    let (ts, lc, snap) = match validated {
        Ok(v) => v,
        Err(e) => {
            eprintln!("run_report: export validation FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };

    let html = match build_report(&r, &ts, &lc, &snap) {
        Ok(html) => html,
        Err(e) => {
            eprintln!("run_report: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = std::env::var("ASAP_REPORT_OUT").unwrap_or_else(|_| "target/run_report.html".into());
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&out, &html) {
        eprintln!("run_report: could not write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "run_report: validated stats/timeseries/lifecycle/metrics exports; \
         wrote {out} ({} bytes)",
        html.len()
    );
    ExitCode::SUCCESS
}
