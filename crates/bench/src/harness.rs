//! The one bench harness of the wall-clock experiments: one timer, one row
//! description rendered two ways, one gate driver.
//!
//! **Timer.** [`time_interleaved`] warms every variant up off the clock,
//! calibrates its inner repeat count to the budget's sample length, then
//! times all variants once per round, round after round, and keeps every
//! sample. A table shows [`Timing::min`] (external noise only ever adds to a
//! sample); every gate reads [`Timing::median_ratio`], the median over
//! rounds of that round's ratio: the variants of a round run back to back,
//! so a slow spell on a shared host, which outlasts a round, slows both
//! sides and cancels, where the ratio of two independent minima has no such
//! pairing (it failed an unchanged tree 2 runs in 12).
//!
//! **Description.** An experiment returns a [`Report`]: named [`Block`]s of
//! typed [`Cell`]s and named [`Gate`]s. [`render_text`]
//! (through [`table::render`]) and [`render_json`] are both derived from it,
//! so a quantity is listed once. The JSON header is stamped here: `schema`,
//! `experiment`, `smoke`, `fma_active`, `git_rev`, `machine`, `gates`; each
//! block follows under its own name.
//!
//! **Driver.** [`main`] runs an [`Experiment`] under the `--smoke` flag,
//! prints the text, writes the artifact, reports failed gates on stderr and
//! sets the exit status.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

use blast_telemetry::chrome::{escape_into, parse_json, Json};

use crate::table;

/// Version of the artifact layout written by [`render_json`].
pub const SCHEMA: u32 = 1;

/// Keys [`render_json`] stamps before the blocks.
const HEADER_KEYS: [&str; 7] =
    ["schema", "experiment", "smoke", "fma_active", "git_rev", "machine", "gates"];

/// How long [`time_interleaved`] measures.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Interleaved rounds (samples kept per variant).
    pub rounds: usize,
    /// Target length of one sample, seconds; a variant whose single call is
    /// longer is timed one call per sample.
    pub sample_s: f64,
}

/// Per-round samples of every variant, seconds per call.
#[derive(Clone, Debug)]
pub struct Timing {
    /// `samples[variant][round]`.
    samples: Vec<Vec<f64>>,
}

impl Timing {
    /// A timing from recorded samples (`samples[variant][round]`).
    pub fn from_samples(samples: Vec<Vec<f64>>) -> Self {
        assert!(samples.iter().all(|s| s.len() == samples[0].len() && !s.is_empty()));
        Self { samples }
    }

    /// Best round of variant `v`, seconds per call.
    pub fn min(&self, v: usize) -> f64 {
        self.samples[v].iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Median over rounds of that round's `sum(num) / sum(den)`.
    pub fn median_ratio(&self, num: &[usize], den: &[usize]) -> f64 {
        let sum = |vs: &[usize], r: usize| vs.iter().map(|&v| self.samples[v][r]).sum::<f64>();
        let mut ratios: Vec<f64> =
            (0..self.samples[0].len()).map(|r| sum(num, r) / sum(den, r)).collect();
        ratios.sort_by(f64::total_cmp);
        ratios[ratios.len() / 2]
    }
}

/// Times `run(v)` for every variant `v < nvariants`: one warm-up call and
/// one calibration call each off the record, then `budget.rounds` rounds
/// that time each variant in turn.
pub fn time_interleaved(nvariants: usize, budget: Budget, run: &mut dyn FnMut(usize)) -> Timing {
    let mut timed = |v: usize, reps: u32| {
        let t0 = Instant::now();
        for _ in 0..reps {
            run(v);
        }
        t0.elapsed().as_secs_f64() / reps as f64
    };
    let reps: Vec<u32> = (0..nvariants)
        .map(|v| {
            timed(v, 1);
            (budget.sample_s / timed(v, 1).max(1e-9)).ceil().max(1.0) as u32
        })
        .collect();
    let mut samples = vec![Vec::with_capacity(budget.rounds); nvariants];
    for _ in 0..budget.rounds {
        for v in 0..nvariants {
            samples[v].push(timed(v, reps[v]));
        }
    }
    Timing::from_samples(samples)
}

/// A typed value of a [`Cell`].
#[derive(Clone, Debug)]
pub enum Value {
    /// A label.
    Str(String),
    /// A count or size.
    Int(u64),
    /// A flag.
    Bool(bool),
    /// A measured or modeled quantity; non-finite is written as `null`.
    Num(f64),
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Int(n as u64)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}

/// One named quantity of a row: the JSON member and the table column.
#[derive(Clone, Debug)]
pub struct Cell {
    key: String,
    value: Value,
    /// What the text table shows; `None` keeps the cell out of it.
    text: Option<String>,
}

impl Cell {
    /// A cell shown as the value's default text (`yes` / `no`, [`table::f`]).
    pub fn new(key: impl Into<String>, value: impl Into<Value>) -> Self {
        let value = value.into();
        let text = match &value {
            Value::Str(s) => s.clone(),
            Value::Int(n) => n.to_string(),
            Value::Bool(b) => if *b { "yes" } else { "no" }.to_string(),
            Value::Num(x) => table::f(*x),
        };
        Self { key: key.into(), value, text: Some(text) }
    }

    /// A ratio, shown as `1.23x`.
    pub fn times(key: impl Into<String>, x: f64) -> Self {
        Self { text: Some(format!("{x:.2}x")), ..Self::new(key, x) }
    }

    /// The same cell, left out of the text table.
    pub fn hidden(self) -> Self {
        Self { text: None, ..self }
    }
}

/// A named group of rows with one set of keys.
#[derive(Clone, Debug)]
pub struct Block {
    name: &'static str,
    title: String,
    rows: Vec<Vec<Cell>>,
    /// One row, written as a JSON object and shown field by field.
    record: bool,
}

impl Block {
    /// A table: a JSON array of objects, one text row per entry.
    pub fn table(name: &'static str, title: impl Into<String>, rows: Vec<Vec<Cell>>) -> Self {
        Self { name, title: title.into(), rows, record: false }
    }

    /// A single record: a JSON object, one text row per field.
    pub fn record(name: &'static str, title: impl Into<String>, cells: Vec<Cell>) -> Self {
        Self { name, title: title.into(), rows: vec![cells], record: true }
    }
}

/// A pass / fail predicate of an experiment, as evaluated on this run.
#[derive(Clone, Debug)]
pub struct Gate {
    /// What is gated, e.g. `"gemm Q3 3D"`.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The measured values and the bar they were held against.
    pub detail: String,
}

impl Gate {
    /// A gate result.
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Self { name: name.into(), ok, detail: detail.into() }
    }
}

/// Everything an experiment reports.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The tables and records.
    pub blocks: Vec<Block>,
    /// The gates, passed and failed.
    pub gates: Vec<Gate>,
}

impl Report {
    /// The gates that did not hold.
    pub fn failures(&self) -> Vec<&Gate> {
        self.gates.iter().filter(|g| !g.ok).collect()
    }
}

/// A wall-clock experiment: its registry name, its artifact file and the
/// function that measures it under the full or the `--smoke` budget.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Registry and bin name.
    pub name: &'static str,
    /// Artifact file name, `BENCH_*.json`.
    pub artifact: &'static str,
    /// Runs the experiment; `true` selects the smoke budget.
    pub run: fn(bool) -> Report,
}

impl Experiment {
    /// Runs under `smoke` and renders the text report.
    pub fn text(&self, smoke: bool) -> String {
        render_text(self.name, smoke, &(self.run)(smoke))
    }
}

/// The cells of `row` the text table shows, as `(key, text)`.
fn shown(row: &[Cell]) -> impl Iterator<Item = (&str, &str)> {
    row.iter().filter_map(|c| Some((c.key.as_str(), c.text.as_deref()?)))
}

/// The human-readable rendering of `report`.
pub fn render_text(experiment: &str, smoke: bool, report: &Report) -> String {
    let mut out = String::new();
    for b in &report.blocks {
        let (headers, rows): (Vec<&str>, Vec<Vec<String>>) = if b.record {
            let fields = shown(&b.rows[0]).map(|(k, t)| vec![k.to_string(), t.to_string()]);
            (vec!["field", "value"], fields.collect())
        } else {
            let texts = |r: &Vec<Cell>| shown(r).map(|c| c.1.to_string()).collect();
            (
                shown(b.rows.first().map_or(&[], Vec::as_slice)).map(|c| c.0).collect(),
                b.rows.iter().map(texts).collect(),
            )
        };
        let title = format!("{experiment} / {} — {}", b.name, b.title);
        out.push_str(&table::render(&title, &headers, &rows));
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "{experiment}: {} budget; FMA clones {}; measured times are the best of the interleaved \
         rounds, measured ratios the median of the per-round ratios.",
        if smoke { "smoke" } else { "full" },
        if fma_active() { "on" } else { "off" },
    );
    for g in &report.gates {
        let _ =
            writeln!(out, "gate {}: {} ({})", g.name, if g.ok { "ok" } else { "FAIL" }, g.detail);
    }
    out
}

/// Whether the FMA clones of `blast_la` are in use (its ULP-bounded regime;
/// `tile` and `stream` share the one level).
fn fma_active() -> bool {
    blast_la::tile::fma_active()
}

fn json_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// A JSON number to six significant digits, `null` when not finite.
fn json_num(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    let rounded: f64 = format!("{x:.5e}").parse().expect("a float Rust just formatted");
    format!("{rounded:?}")
}

fn json_object(out: &mut String, cells: &[Cell]) {
    out.push('{');
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(out, &c.key);
        out.push_str(": ");
        match &c.value {
            Value::Str(s) => json_str(out, s),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Bool(b) => out.push_str(&b.to_string()),
            Value::Num(x) => out.push_str(&json_num(*x)),
        }
    }
    out.push('}');
}

/// `git rev-parse HEAD` of the working directory, `"unknown"` if that fails.
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// CPU model, logical CPUs and the kernels' instruction-set level.
fn machine() -> Vec<Cell> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        Cell::new("cpu_model", model),
        Cell::new("logical_cpus", cpus),
        Cell::new("isa", blast_kernels::host_isa()),
    ]
}

fn json_array(out: &mut String, rows: &[Vec<Cell>]) {
    out.push('[');
    for (i, row) in rows.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        json_object(out, row);
    }
    out.push_str("\n  ]");
}

/// Starts the top-level member `name`.
fn member(out: &mut String, name: &str) {
    out.push_str(",\n  ");
    json_str(out, name);
    out.push_str(": ");
}

/// The machine-readable rendering of `report`, header stamped.
pub fn render_json(experiment: &str, smoke: bool, report: &Report) -> String {
    let gates: Vec<Vec<Cell>> = report
        .gates
        .iter()
        .map(|g| {
            vec![
                Cell::new("name", &*g.name),
                Cell::new("ok", g.ok),
                Cell::new("detail", &*g.detail),
            ]
        })
        .collect();
    let out = &mut format!("{{\n  \"schema\": {SCHEMA}");
    member(out, "experiment");
    json_str(out, experiment);
    member(out, "smoke");
    out.push_str(&smoke.to_string());
    member(out, "fma_active");
    // One value under the two names the committed artifacts carry.
    json_object(out, &[Cell::new("tile", fma_active()), Cell::new("stream", fma_active())]);
    member(out, "git_rev");
    json_str(out, &git_rev());
    member(out, "machine");
    json_object(out, &machine());
    member(out, "gates");
    json_array(out, &gates);
    for b in &report.blocks {
        assert!(!HEADER_KEYS.contains(&b.name), "block '{}' shadows a header key", b.name);
        member(out, b.name);
        if b.record {
            json_object(out, &b.rows[0]);
        } else {
            json_array(out, &b.rows);
        }
    }
    out.push_str("\n}\n");
    std::mem::take(out)
}

/// Parses an artifact and checks the stamped header: every header key
/// present and the schema version the one this harness writes.
pub fn parse_artifact(text: &str) -> Result<Json, String> {
    let doc = parse_json(text)?;
    for key in HEADER_KEYS {
        doc.get(key).ok_or_else(|| format!("artifact lacks the header key '{key}'"))?;
    }
    match doc.get("schema").and_then(Json::as_f64) {
        Some(v) if v == f64::from(SCHEMA) => Ok(doc),
        other => Err(format!("artifact schema {other:?}, this harness reads {SCHEMA}")),
    }
}

/// Runs `exp`, prints its text report, writes its artifact into `dir` and
/// reports failed gates on stderr. `Ok(true)` when every gate held.
pub fn drive(exp: &Experiment, smoke: bool, dir: &Path) -> std::io::Result<bool> {
    let report = (exp.run)(smoke);
    print!("{}", render_text(exp.name, smoke, &report));
    let path = dir.join(exp.artifact);
    std::fs::write(&path, render_json(exp.name, smoke, &report))?;
    println!("wrote {}", path.display());
    for g in report.failures() {
        eprintln!("GATE FAIL {}: {}", g.name, g.detail);
    }
    Ok(report.failures().is_empty())
}

/// The whole `main` of a gate bin: [`drive`] into the working directory
/// under the `--smoke` flag; non-zero exit on a failed gate or write.
pub fn main(exp: &Experiment) -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    match drive(exp, smoke, Path::new(".")) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{}: failed to write {}: {e}", exp.name, exp.artifact);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` dependent multiply-adds the optimiser cannot fold.
    fn spin(n: u64) {
        let mut acc = 1.0f64;
        for _ in 0..n {
            acc = std::hint::black_box(acc * 1.000_000_1 + 1e-9);
        }
        std::hint::black_box(acc);
    }

    #[test]
    fn timer_reads_a_known_cost_ratio_and_interleaves_its_rounds() {
        let mut calls = Vec::new();
        let budget = Budget { rounds: 11, sample_s: 0.0 };
        let t = time_interleaved(2, budget, &mut |v| {
            calls.push(v);
            spin(if v == 0 { 400_000 } else { 200_000 });
        });
        // Twice the work reads as twice the time, within a quarter.
        let ratio = t.median_ratio(&[0], &[1]);
        assert!((1.5..=2.5).contains(&ratio), "1 : 2 closures read {ratio}");
        assert!(t.min(0) > t.min(1) && t.min(1) > 0.0);
        // Warm-up and calibration per variant, then strict alternation.
        let rounds: Vec<usize> = (0..11).flat_map(|_| [0, 1]).collect();
        assert_eq!(calls, [vec![0, 0, 1, 1], rounds].concat());
    }

    #[test]
    fn timer_calibrates_repeats_to_the_sample_length() {
        let mut calls = [0usize; 2];
        time_interleaved(2, Budget { rounds: 3, sample_s: 2e-3 }, &mut |v| {
            calls[v] += 1;
            spin(if v == 0 { 200 } else { 4_000_000 });
        });
        assert!(calls[0] > 2 + 3 * 10, "a short variant is repeated, got {} calls", calls[0]);
        assert_eq!(calls[1], 2 + 3, "a variant longer than the sample runs once per round");
    }

    #[test]
    #[should_panic(expected = "variant 1 broke")]
    fn a_panicking_variant_propagates() {
        time_interleaved(2, Budget { rounds: 2, sample_s: 0.0 }, &mut |v| {
            assert!(v == 0, "variant {v} broke");
        });
    }

    #[test]
    fn median_ratio_pairs_samples_by_round() {
        // Round 2 is a slow spell that hits both variants: the per-round
        // ratio does not see it, the ratio of minima of other data would.
        let t =
            Timing::from_samples(vec![vec![2.0, 2.2, 20.0], vec![1.0, 1.0, 10.0], vec![1.0; 3]]);
        assert_eq!(t.median_ratio(&[0], &[1]), 2.0);
        assert_eq!(t.median_ratio(&[0, 1], &[2]), 3.2);
        assert_eq!(t.min(0), 2.0);
    }

    fn sample_report(ok: bool) -> Report {
        Report {
            blocks: vec![
                Block::table(
                    "shapes",
                    "two \"shapes\"",
                    vec![
                        vec![
                            Cell::new("label", "Q2 3D"),
                            Cell::new("n", 81usize),
                            Cell::times("speedup", 2.0),
                        ],
                        vec![
                            Cell::new("label", "Q3\t3D"),
                            Cell::new("n", 192usize),
                            Cell::times("speedup", f64::NAN),
                        ],
                    ],
                ),
                Block::record(
                    "ceiling",
                    "ceiling leg",
                    vec![Cell::new("stored_oom", true), Cell::new("bytes", 1usize << 33).hidden()],
                ),
            ],
            gates: vec![Gate::new("gemm Q2 3D", ok, "2.00x, need >= 1x")],
        }
    }

    #[test]
    fn artifact_parses_and_carries_header_gates_and_typed_cells() {
        let doc = parse_artifact(&render_json("demo", true, &sample_report(false))).unwrap();
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("demo"));
        assert_eq!(doc.get("smoke"), Some(&Json::Bool(true)));
        assert!(doc.get("git_rev").and_then(Json::as_str).is_some_and(|r| !r.is_empty()));
        let machine = doc.get("machine").unwrap();
        assert!(machine.get("logical_cpus").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(machine.get("cpu_model").is_some() && machine.get("isa").is_some());
        let gate = &doc.get("gates").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(gate.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(gate.get("name").and_then(Json::as_str), Some("gemm Q2 3D"));
        let shapes = doc.get("shapes").and_then(Json::as_arr).unwrap();
        assert_eq!(shapes[0].get("speedup").and_then(Json::as_f64), Some(2.0));
        assert_eq!(shapes[1].get("label").and_then(Json::as_str), Some("Q3\t3D"));
        // A non-finite cell is `null`, not invalid JSON.
        assert_eq!(shapes[1].get("speedup"), Some(&Json::Null));
        let bytes = doc.get("ceiling").and_then(|c| c.get("bytes")).and_then(Json::as_f64);
        assert_eq!(bytes, Some((1u64 << 33) as f64));
    }

    #[test]
    fn parse_artifact_rejects_a_stale_or_foreign_document() {
        let err =
            parse_artifact("{\"experiment\": \"host_kernels\", \"smoke\": true}").unwrap_err();
        assert!(err.contains("schema"), "{err}");
        let newer =
            render_json("demo", true, &Report::default()).replace("\"schema\": 1", "\"schema\": 2");
        assert!(parse_artifact(&newer).unwrap_err().contains("schema"));
        assert!(parse_artifact("{").is_err());
    }

    #[test]
    fn text_shows_every_visible_cell_once_and_every_gate() {
        let text = render_text("demo", true, &sample_report(true));
        assert!(
            text.contains("== demo / shapes — two \"shapes\" ==")
                && text.contains("— ceiling leg ==")
        );
        assert!(text.contains("label") && text.contains("2.00x") && text.contains("stored_oom"));
        assert!(!text.contains("bytes"), "a hidden cell stays out of the table");
        assert!(text.contains("gate gemm Q2 3D: ok (2.00x, need >= 1x)"));
        assert_eq!(json_num(1234.5678), "1234.57");
        assert_eq!(json_num(f64::INFINITY), "null");
    }
}
