//! The one-command report: every workload in a child process of its own
//! (clean `VmHWM`, one pool size per process), both measurements each,
//! printed by name with unit and written to `benchmark/out/results.json`.
//! `--agree` runs the set twice and compares the two.

use std::fmt::Write as _;
use std::process::{Command, Stdio};

use blast_repro::blast_telemetry::chrome::{parse_json, Json};

use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::run::out_dir;
use crate::stats::{disagree, worsening};
use crate::sys::Stamp;
use crate::workloads::Workload;

/// Bumped when `results.json` changes shape.
const SCHEMA_VERSION: u32 = 1;

/// What a child printed, parsed back.
#[derive(Clone, Debug, Default)]
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    digest: Option<String>,
}

impl ChildResult {
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Both measurements of one workload.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    name: &'static str,
    why: &'static str,
    pool: usize,
    end_to_end: ChildResult,
    per_layer: ChildResult,
}

/// Runs this binary again for one workload and one `--trace` value, shows
/// its commentary, and parses the result line.
fn run_child(w: &Workload, seed: u64, seconds: u64, trace: u8) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            &trace.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().ok_or("child printed nothing")?;
    let mut digest = None;
    for line in &lines {
        println!("  {line}");
        if let Some(d) = line.strip_prefix("digest ") {
            digest = Some(d.to_string());
        }
    }
    let doc = parse_json(last).map_err(|e| format!("child result line is not JSON: {e}"))?;
    let num = |k: &str| {
        doc.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("result lacks {k}"))
    };
    let Some(Json::Obj(entries)) = doc.get("metrics") else {
        return Err("result lacks metrics".into());
    };
    let metrics = entries
        .iter()
        .map(|(name, m)| {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("{name} lacks a value"))?;
            Ok((name.clone(), v))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ChildResult {
        correct: matches!(doc.get("correct"), Some(Json::Bool(true))),
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics,
        digest,
    })
}

/// Runs every workload in `workloads`; returns the set and whether every
/// correctness gate passed.
pub fn run_set(
    workloads: &[&'static Workload],
    seed: u64,
    seconds: u64,
) -> (Vec<WorkloadResult>, bool) {
    let mut set = Vec::new();
    let mut ok = true;
    for &w in workloads {
        let mut measure = |trace: u8| {
            println!("== {} --trace {trace}", w.name);
            let result = run_child(w, seed, seconds, trace).unwrap_or_else(|e| {
                println!("  child failed: {e}");
                ChildResult::default()
            });
            ok &= result.correct;
            result
        };
        let (end_to_end, per_layer) = (measure(0), measure(1));
        set.push(WorkloadResult {
            name: w.name,
            why: w.why,
            pool: w.pool,
            end_to_end,
            per_layer,
        });
    }
    (set, ok)
}

fn print_table(defs: &[Def], r: &ChildResult) {
    for d in defs {
        match r.get(d.name) {
            Some(v) => println!("  {:<34} {:>16.6} {}", d.name, v, d.unit),
            None => println!("  {:<34} {:>16} {}", d.name, "missing", d.unit),
        }
    }
}

pub fn print_set(set: &[WorkloadResult]) {
    for r in set {
        let e = &r.end_to_end;
        println!("\n{} (pool {}): {}", r.name, r.pool, r.why);
        print_table(&END_TO_END, e);
        let share = if e.attempted == 0 {
            0.0
        } else {
            e.failed as f64 / e.attempted as f64
        };
        println!(
            "  {:<34} {:>16.6} ratio ({} of {} steps)",
            "failed_share", share, e.failed, e.attempted
        );
        print_table(&PER_LAYER, &r.per_layer);
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(defs: &[Def], r: &ChildResult) -> String {
    let items: Vec<String> = defs
        .iter()
        .filter_map(|d| {
            let v = r.get(d.name)?;
            Some(format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(d.name),
                json_str(d.unit)
            ))
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// Writes the stamped result set to `benchmark/out/results.json`.
pub fn write_results(
    set: &[WorkloadResult],
    stamp: &Stamp,
    seed: u64,
    seconds: u64,
) -> std::io::Result<()> {
    let workloads: Vec<String> = set
        .iter()
        .map(|r| {
            let e = &r.end_to_end;
            format!(
                "    {}: {{\"pool\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"digest\": {},\n      \"end_to_end\": {},\n      \"per_layer\": {}}}",
                json_str(r.name),
                r.pool,
                e.correct && r.per_layer.correct,
                e.attempted,
                e.failed,
                json_str(e.digest.as_deref().unwrap_or("")),
                json_metrics(&END_TO_END, e),
                json_metrics(&PER_LAYER, &r.per_layer),
            )
        })
        .collect();
    let text = format!(
        "{{\n  \"schema\": {SCHEMA_VERSION},\n  \"git_rev\": {},\n  \"rustc\": {},\n  \"nproc\": {},\n  \"cpu_model\": {},\n  \"llc_bytes\": {},\n  \"fma_active\": {},\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        json_str(&stamp.git_rev),
        json_str(&stamp.rustc),
        stamp.nproc,
        json_str(&stamp.cpu_model),
        stamp.llc_bytes,
        stamp.fma_active,
        workloads.join(",\n"),
    );
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("results.json");
    std::fs::write(&path, text)?;
    println!("\nresults written to {}", path.display());
    Ok(())
}

/// Prints, per workload and end-to-end metric, both values, their relative
/// difference and the bound; exact metrics must repeat exactly. Returns
/// whether the two sets agree.
pub fn agree(a: &[WorkloadResult], b: &[WorkloadResult]) -> bool {
    let mut ok = true;
    println!(
        "\n{:<22} {:<28} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (ra, rb) in a.iter().zip(b) {
        for d in &END_TO_END {
            let (Some(x), Some(y)) = (ra.end_to_end.get(d.name), rb.end_to_end.get(d.name)) else {
                println!("{:<22} {:<28} missing", ra.name, d.name);
                ok = false;
                continue;
            };
            let bad = if d.exact {
                x.to_bits() != y.to_bits()
            } else {
                disagree(d.better, d.comparator_bound(), x, y)
            };
            let bound = if d.exact {
                "exact".to_string()
            } else {
                format!("{:.0}%", 100.0 * d.bound)
            };
            println!(
                "{:<22} {:<28} {:>16.6} {:>16.6} {:>+8.2}% {:>7}{}",
                ra.name,
                d.name,
                x,
                y,
                100.0 * worsening(d.better, x, y),
                bound,
                if bad { "  DISAGREE" } else { "" }
            );
            ok &= !bad;
        }
        for d in PER_LAYER.iter().filter(|d| d.exact) {
            let (x, y) = (ra.per_layer.get(d.name), rb.per_layer.get(d.name));
            if x.map(f64::to_bits) != y.map(f64::to_bits) || x.is_none() {
                println!(
                    "{:<22} {:<28} {x:?} != {y:?}  DISAGREE (exact)",
                    ra.name, d.name
                );
                ok = false;
            }
        }
    }
    ok
}
