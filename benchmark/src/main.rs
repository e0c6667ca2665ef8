//! `asap-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! [--write-golden]`
//!
//! With `--workload`, runs that workload and prints its metrics, ending
//! with one JSON result line. Without it, runs every workload, each in a
//! child process of its own. `--write-golden` records the digests of the
//! workload at the seed as its golden file instead of measuring.

use std::process::{Command, ExitCode};

use asap_benchmark::{run_workload, write_golden, Options, Scale, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: asap-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--write-golden]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_golden: bool,
}

fn parse_seed(v: &str) -> Option<u64> {
    let v = v.replace('_', "");
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        write_golden: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--write-golden" {
            a.write_golden = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => a.workload = Some(Workload::from_name(&v).ok_or_else(bad)?),
            "--seed" => a.seed = parse_seed(&v).ok_or_else(bad)?,
            "--seconds" => {
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

/// Runs every workload in a child process of its own, so each one's
/// peak RSS is its own.
fn run_suite(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // Nothing inherited may change what is measured: the run cache, job
    // counts, event streams and every other knob keep their defaults.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("ASAP_") {
            std::env::remove_var(k);
        }
    }
    let a = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = a.workload else {
        return run_suite(&a);
    };
    let o = Options {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        scale: Scale::Full,
    };
    if a.write_golden {
        return match write_golden(&o) {
            Ok(path) => {
                println!("wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    println!("{}", asap_benchmark::report::host_record());
    let out = run_workload(&o);
    for n in &out.notes {
        println!("{n}");
    }
    for m in &out.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(tr) = &out.tracer {
        // Spans go next to the executable, inside the build directory.
        let path = std::env::current_exe()
            .ok()
            .and_then(|p| Some(p.parent()?.join(format!("spans-{}.json", workload.name()))));
        match path.map(|p| std::fs::write(&p, tr.to_json()).map(|()| p)) {
            Some(Ok(p)) => println!("spans: {} written to {}", tr.spans().len(), p.display()),
            _ => eprintln!("could not write the spans file"),
        }
    }
    println!("{}", out.json_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
