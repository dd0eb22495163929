//! Wall-clock end-to-end benchmark of the BLAST reproduction.
//!
//! Two ways in, one measurement underneath:
//!
//! * the driver's contract — `--workload NAME --seed N --seconds S
//!   --trace 0|1` runs one workload in this process and ends with one JSON
//!   line (`--trace 0`: end-to-end metrics; `--trace 1`: per-layer);
//! * the report — without `--trace`, every workload (or the one named)
//!   runs in a child process of its own, both measurements each; `--agree`
//!   does it twice and compares. See `README.md`.

mod metrics;
mod probes;
mod report;
mod rng;
mod run;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::process::ExitCode;

use workloads::{Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: sys::CountingAlloc = sys::CountingAlloc;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 20140519;

/// Measuring time per run when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 15;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    agree: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        agree: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                args.workload = Some(workloads::find(&name).ok_or(format!(
                    "unknown workload {name}; known: {}",
                    names.join(", ")
                ))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--agree" => args.agree = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(args)
}

/// The driver's contract: commentary lines, then the result object as the
/// last line of standard output.
fn contract_run(w: &Workload, seed: u64, seconds: u64, trace: bool) -> ExitCode {
    println!(
        "workload {} seed {seed} seconds {seconds} trace {}",
        w.name,
        u8::from(trace)
    );
    let out = run::run(w, seed, seconds as f64, trace);
    for note in &out.notes {
        println!("note {note}");
    }
    for v in &out.violations {
        println!("violation {v}");
    }
    for m in &out.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "failed_share = {} ({} of {} steps)",
        out.ops.failed_share(),
        out.ops.failed,
        out.ops.attempted
    );
    if let Some(d) = out.digest {
        println!("digest {d:08x}");
    }
    let finite = out.metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        println!("violation a metric is not a finite number");
    }
    let correct = out.correct() && finite && !out.metrics.is_empty();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.ops.attempted,
        out.ops.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn report_run(args: &Args) -> ExitCode {
    let chosen: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let stamp = sys::Stamp::collect();
    println!(
        "stamp {stamp:?} seed {} seconds {}",
        args.seed, args.seconds
    );
    let (first, mut ok) = report::run_set(&chosen, args.seed, args.seconds);
    report::print_set(&first);
    if let Err(e) = report::write_results(&first, &stamp, args.seed, args.seconds) {
        eprintln!("cannot write results: {e}");
        ok = false;
    }
    if args.agree {
        let (second, ok2) = report::run_set(&chosen, args.seed, args.seconds);
        report::print_set(&second);
        let agreed = report::agree(&first, &second);
        println!("\nagreement: {}", if agreed { "PASS" } else { "FAIL" });
        ok &= ok2 && agreed;
    }
    println!("correctness gate: {}", if ok { "PASS" } else { "FAIL" });
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
            eprintln!("{e}");
            eprintln!("usage: blast-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --agree]");
            return ExitCode::from(2);
        }
    };
    match (args.workload, args.trace) {
        (Some(w), Some(trace)) => contract_run(w, args.seed, args.seconds, trace),
        _ => report_run(&args),
    }
}
