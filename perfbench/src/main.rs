//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dense_aa_dram|halo_q39_2rank|sparse_porous_aa|ensemble_ckpt|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in one process on at most two threads. The seed
//! generates the workload's inputs; the program only sees those inputs.
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! traced per-layer ledger and writes a Chrome trace-event file under
//! `.perfbench/`. The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the lines before it are
//! the human-readable report. `--workload all` runs every workload, each in
//! its own child process, and prints all their reports.

mod ensemble;
mod host;
mod probes;
mod report;
mod simrun;
mod trace;

use std::process::ExitCode;

use report::Report;
use trace::{SpanId, Tracer};

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: &[&str] = &[
    "dense_aa_dram",
    "halo_q39_2rank",
    "sparse_porous_aa",
    "ensemble_ckpt",
];

/// Threads the benchmark uses at most.
const MAX_THREADS: usize = 2;

/// Directory (under the working directory) for traces and scratch files.
pub const OUT_DIR: &str = ".perfbench";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    pub llc: u64,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?} or all)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        threads: host::nproc().min(MAX_THREADS),
        llc: host::llc_bytes(),
    })
}

/// Write the traced run's Chrome trace and its per-layer ledger.
pub fn finish_trace(tr: &Tracer, rep: &mut Report, args: &Args, root: SpanId) {
    let wall = tr.duration(root);
    let ledger = tr.ledger();
    let attributed: f64 = ledger
        .iter()
        .filter(|(layer, _)| **layer != "bench")
        .map(|(_, s)| s)
        .sum();
    rep.notes.push(format!(
        "ledger: traced wall {wall:.3} s, layer self times sum to {attributed:.3} s ({:.2}%)",
        100.0 * attributed / wall
    ));
    for (layer, s) in &ledger {
        rep.notes.push(format!(
            "ledger {layer:<9} self {s:>9.4} s  {:>6.2}%",
            100.0 * s / wall
        ));
    }
    let path = std::path::Path::new(OUT_DIR)
        .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, tr.chrome_json().render()));
    rep.notes.push(match written {
        Ok(()) => format!("trace: wrote {} (Chrome trace-event JSON)", path.display()),
        Err(e) => format!("trace: could not write {}: {e}", path.display()),
    });
}

fn run_one(args: &Args) -> Result<Report, String> {
    let mut rep = Report::default();
    if args.workload == "ensemble_ckpt" {
        ensemble::run(args, &mut rep)?;
    } else {
        let case = simrun::Case::new(&args.workload, args.seed, args.llc)
            .ok_or_else(|| format!("unknown workload {}", args.workload))?;
        simrun::run(&case, args, &mut rep)?;
    }
    if !args.trace {
        rep.notes.push(format!(
            "peak_rss_mib {:.3} MiB (VmHWM; reported, not gated)",
            host::peak_rss_mib()
        ));
    }
    Ok(rep)
}

/// `--workload all`: each workload in its own child process, one after the
/// other, with the same seed, seconds and trace flag.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        match out {
            Ok(o) => {
                print!("{}", String::from_utf8_lossy(&o.stdout));
                eprint!("{}", String::from_utf8_lossy(&o.stderr));
                ok &= o.status.success();
            }
            Err(e) => {
                eprintln!("error: {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let rep = match run_one(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "host nproc={} llc_bytes={} threads={} resident_population_bytes={} resident_over_llc={:.3}",
        host::nproc(),
        args.llc,
        args.threads,
        rep.resident_bytes,
        rep.resident_bytes as f64 / args.llc as f64
    );
    for line in &rep.notes {
        println!("{line}");
    }
    for line in rep.metric_lines(args.trace) {
        println!("{line}");
    }
    println!(
        "failed_frac {:.6} ({} of {} attempted)",
        rep.failed as f64 / rep.attempted.max(1) as f64,
        rep.failed,
        rep.attempted
    );
    println!("{}", rep.result_json(args.trace).render());
    ExitCode::SUCCESS
}
