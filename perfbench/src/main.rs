//! The serving benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its corpus, users, arrival schedule and
//! appends from `--seed`, drives the engine through its public API, checks
//! every answer, and prints one `# metric` line per metric (with unit and
//! sample count) followed by a JSON result line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the load again with spans on,
//! replays its requests stage by stage, reports the per-layer metrics and
//! writes the spans under `.bench_out/`.
//!
//! Exit codes: 0 for a valid, correct run; 1 when a correctness check
//! failed; 2 for bad arguments; 3 when the run is invalid (generator
//! behind schedule, too few samples for a percentile) — then no result
//! line is printed.

mod load;
mod replay;
mod report;
mod rng;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        workloads::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<workloads::Args, String> {
    let (mut workload, mut seed, mut secs, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                secs = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(workloads::Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: secs.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let clock = load::Clock::start();
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    let report = workloads::run(&args, clock);
    print!("{}", report.metric_lines());
    for m in &report.mismatches {
        eprintln!("# mismatch: {m}");
    }
    if !report.invalid.is_empty() {
        for reason in &report.invalid {
            eprintln!("# invalid run: {reason}");
        }
        return ExitCode::from(3);
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
