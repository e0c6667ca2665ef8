//! No std `HashMap`, `HashSet` or `RandomState` in the simulator's own
//! state: outside tests, `crates/{core,mem,pmem,sim}/src` must use the
//! seed-free `asap_pmem::AddrMap` / `AddrSet` (see `asap_pmem::hash`).
//! A std map's `RandomState` reseeds in every process, so it pays SipHash
//! on every lookup, and an iteration order that reached simulated state
//! would differ run to run. `crates/pmem/src/hash.rs`, which defines the
//! aliases, is the one file exempt.

use std::path::{Path, PathBuf};

/// The names the scan rejects.
const FORBIDDEN: [&str; 3] = ["HashMap", "HashSet", "RandomState"];

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            rs_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Whether `code` names `word` as a whole identifier.
fn names(code: &str, word: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    code.match_indices(word).any(|(i, _)| {
        !code[..i].chars().next_back().is_some_and(ident)
            && !code[i + word.len()..].chars().next().is_some_and(ident)
    })
}

#[test]
fn simulated_state_uses_seed_free_maps() {
    // CARGO_MANIFEST_DIR of this crate is crates/bench.
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for krate in ["core", "mem", "pmem", "sim"] {
        rs_files(&crates.join(krate).join("src"), &mut files);
    }
    assert!(files.len() > 30, "the scan found the simulator's sources");
    let exempt = crates.join("pmem/src/hash.rs");
    assert!(files.contains(&exempt), "the aliases live in hash.rs");

    let mut found = Vec::new();
    for f in files.iter().filter(|f| **f != exempt) {
        let text = std::fs::read_to_string(f).expect("readable source");
        let lines: Vec<&str> = text.lines().collect();
        // Everything from the test module (`#[cfg(test)]` then `mod`) on
        // is test code; a `#[cfg(test)]` item before it is scanned too.
        let tests = lines
            .windows(2)
            .position(|w| w[0].trim() == "#[cfg(test)]" && w[1].trim_start().starts_with("mod "))
            .unwrap_or(lines.len());
        for (n, line) in lines[..tests].iter().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            for word in FORBIDDEN.iter().filter(|w| names(code, w)) {
                found.push(format!("{}:{}: {word}", f.display(), n + 1));
            }
        }
    }
    assert!(
        found.is_empty(),
        "std hashed collections in simulated state (use asap_pmem::AddrMap/AddrSet):\n{}",
        found.join("\n")
    );
}
