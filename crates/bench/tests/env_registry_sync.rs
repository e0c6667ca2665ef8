//! Every `ASAP_`-prefixed environment variable read anywhere in the
//! workspace must be listed in [`asap_sim::KNOWN_ASAP_ENV`] — otherwise
//! the unknown-variable warning would fire on a knob the code actually
//! honors (or worse, a new knob would be unlisted and untypo-checked).
//! And every listed name must be both read by Rust code *and* named by
//! `ci.sh`: a knob stays only if something reads it and a CI stage
//! exercises it, so a dead or untested knob cannot linger in the registry.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name().to_string_lossy().into_owned();
        if p.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            rs_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

#[test]
fn registry_matches_env_reads() {
    // CARGO_MANIFEST_DIR of this crate is crates/bench.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    rs_files(&root, &mut files);
    assert!(files.len() > 20, "workspace walk found source files");

    // `(variable, file)` for every `"ASAP_*"` literal on a line that
    // reads the environment.
    let mut reads: BTreeSet<(String, String)> = BTreeSet::new();
    for f in &files {
        let Ok(text) = std::fs::read_to_string(f) else {
            continue;
        };
        for line in text.lines() {
            if !line.contains("env::var") {
                continue;
            }
            let mut rest = line;
            while let Some(i) = rest.find("\"ASAP_") {
                let lit = &rest[i + 1..];
                let end = lit.find('"').unwrap_or(lit.len());
                reads.insert((lit[..end].to_string(), f.display().to_string()));
                rest = &lit[end..];
            }
        }
    }

    let mut seen = BTreeSet::new();
    for (var, file) in &reads {
        assert!(
            asap_sim::KNOWN_ASAP_ENV.contains(&var.as_str()),
            "{file} reads {var}, which is missing from KNOWN_ASAP_ENV"
        );
        seen.insert(var.as_str());
    }
    // The scan itself must be finding the real reads, in the harness and
    // in `examples/` alike — an empty or partial scan would pass the
    // containment check vacuously.
    for known in [
        "ASAP_OPS",
        "ASAP_RUNCACHE",
        "ASAP_CRASH_SWEEP",
        "ASAP_REPORT_OUT",
        "ASAP_PROGRESS",
    ] {
        assert!(seen.contains(known), "scan should find a read of {known}");
    }

    // The other direction: no dead or unexercised names. Each registered
    // knob must be read by Rust code and named by a `ci.sh` stage.
    let ci = std::fs::read_to_string(root.join("ci.sh")).expect("ci.sh at the workspace root");
    let ci_names: BTreeSet<&str> = ci
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with("ASAP_"))
        .collect();
    for name in asap_sim::KNOWN_ASAP_ENV {
        assert!(
            seen.contains(name),
            "{name} is registered in KNOWN_ASAP_ENV but no Rust code reads it"
        );
        assert!(
            ci_names.contains(name),
            "{name} is registered in KNOWN_ASAP_ENV but no ci.sh stage names it"
        );
    }
}
