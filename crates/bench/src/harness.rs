//! The one bench harness of every experiment: one timer, one row
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
//! typed [`Cell`]s and named [`Gate`]s, the paper relations its numbers must
//! keep. `render_text` and [`render_json`] are both derived from it, so a
//! quantity is listed once. The JSON header is stamped here: `schema`,
//! `experiment`, `smoke`, `git_rev`, `machine`, `gates`; each
//! block follows under its own name. `render_paper_json` stamps the same
//! header over several experiments, each a member holding its blocks.
//!
//! **Driver.** [`main`] runs an [`Experiment`] under the `--smoke` flag,
//! prints the text, writes the artifact, reports failed gates on stderr and
//! sets the exit status.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

use blast_telemetry::chrome::{escape_into, parse_json, Json};

/// Version of the artifact layout written by [`render_json`].
const SCHEMA: u32 = 2;

/// Keys [`render_json`] stamps before the blocks.
pub(crate) const HEADER_KEYS: [&str; 6] = ["schema", "experiment", "smoke", "git_rev", "machine", "gates"];

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
    /// A cell shown as the value's default text (`yes` / `no`, a number to
    /// about four significant digits).
    pub fn new(key: impl Into<String>, value: impl Into<Value>) -> Self {
        let value = value.into();
        let text = match &value {
            Value::Str(s) => s.clone(),
            Value::Int(n) => n.to_string(),
            Value::Bool(b) => if *b { "yes" } else { "no" }.to_string(),
            Value::Num(x) => num_text(*x),
        };
        Self { key: key.into(), value, text: Some(text) }
    }

    /// A ratio, shown as `1.23x`.
    pub fn times(key: impl Into<String>, x: f64) -> Self {
        Self { text: Some(format!("{x:.2}x")), ..Self::new(key, x) }
    }

    /// A fraction, shown as a percentage `12.3%`.
    pub fn pct(key: impl Into<String>, x: f64) -> Self {
        Self { text: Some(format!("{:.1}%", 100.0 * x)), ..Self::new(key, x) }
    }

    /// A quantity shown in scientific notation with `digits` after the
    /// point, for values whose trailing digits are the point (the artifact
    /// keeps six significant digits).
    pub fn sci(key: impl Into<String>, x: f64, digits: usize) -> Self {
        Self { text: Some(format!("{x:.digits$e}")), ..Self::new(key, x) }
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

/// An experiment: its registry name, where its numbers go and the function
/// that measures it under the full or the `--smoke` budget.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Registry name; a gate bin's name too.
    pub name: &'static str,
    /// The artifact of a wall-clock experiment, `BENCH_*.json`, which its
    /// gate bin writes. `None` for an experiment whose every number comes
    /// off the simulated clock and device models (the same on every host):
    /// a member of `BENCH_paper.json`.
    pub artifact: Option<&'static str>,
    /// Runs the experiment; `true` selects the smoke budget.
    pub run: fn(bool) -> Report,
}

impl Experiment {
    /// A simulated-clock experiment: a member of `BENCH_paper.json`, one
    /// budget.
    pub const fn modeled(name: &'static str, run: fn(bool) -> Report) -> Self {
        Self { name, artifact: None, run }
    }
}

/// The cells of `row` the text table shows, as `(key, text)`.
fn shown(row: &[Cell]) -> impl Iterator<Item = (&str, &str)> {
    row.iter().filter_map(|c| Some((c.key.as_str(), c.text.as_deref()?)))
}

/// How the figures of a wall-clock experiment were taken.
const WALL_CLOCK: &str = "; wall-clock times are the best of the interleaved rounds, wall-clock \
                          ratios the median of the per-round ratios";

/// The human-readable rendering of `exp`'s `report`; only a wall-clock
/// experiment's footer says how its times were taken.
fn render_text(exp: &Experiment, smoke: bool, report: &Report) -> String {
    let experiment = exp.name;
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
        render_table(&mut out, &title, &headers, &rows);
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "{experiment}: {} budget{}.",
        if smoke { "smoke" } else { "full" },
        if exp.artifact.is_some() { WALL_CLOCK } else { "" },
    );
    for g in &report.gates {
        let _ =
            writeln!(out, "gate {}: {} ({})", g.name, if g.ok { "ok" } else { "FAIL" }, g.detail);
    }
    out
}

/// Appends `headers` and `rows` as a fixed-width, right-aligned text table
/// under `title`.
fn render_table(out: &mut String, title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row width mismatch in table '{title}'");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let line = |out: &mut String, cells: &mut dyn Iterator<Item = &str>| {
        let mut text = String::new();
        for (cell, w) in cells.zip(&widths) {
            let _ = write!(text, "{cell:>w$}  ");
        }
        out.push_str(text.trim_end());
        out.push('\n');
    };
    let _ = writeln!(out, "== {title} ==");
    line(out, &mut headers.iter().copied());
    let _ = writeln!(out, "{}", "-".repeat(widths.iter().map(|w| w + 2).sum()));
    for row in rows {
        line(out, &mut row.iter().map(String::as_str));
    }
}

/// The default text of a number: three decimals in `[1, 100)`, one above,
/// five in `[1e-3, 1)`, scientific below.
fn num_text(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.3}")
    } else if x.abs() >= 1e-3 {
        format!("{x:.5}")
    } else {
        format!("{x:.3e}")
    }
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

/// `git rev-parse HEAD` of the working directory, `"unknown"` if that fails,
/// with `-dirty` appended when a tracked file other than an artifact differs
/// from that commit ([`edits_beyond_artifacts`]).
fn git_rev() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let Some(rev) = git(&["rev-parse", "HEAD"]) else { return "unknown".to_string() };
    let status = git(&["status", "--porcelain", "--untracked-files=no"]);
    let dirty = status.is_some_and(|s| edits_beyond_artifacts(&s));
    format!("{}{}", rev.trim(), if dirty { "-dirty" } else { "" })
}

/// Whether `git status --porcelain` output lists a changed tracked file
/// other than a `BENCH_*.json` artifact, the files a gate bin rewrites: the
/// code that wrote the artifact is then not the stamped commit's.
fn edits_beyond_artifacts(porcelain: &str) -> bool {
    porcelain.lines().filter_map(|l| l.get(3..)).any(|path| {
        // A rename lists `old -> new`; a path with special characters is quoted.
        let path = path.rsplit(" -> ").next().unwrap_or(path).trim_matches('"');
        let file = path.rsplit('/').next().unwrap_or(path);
        !(file.starts_with("BENCH_") && file.ends_with(".json"))
    })
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

fn json_array(out: &mut String, rows: &[Vec<Cell>], indent: &str) {
    out.push('[');
    for (i, row) in rows.iter().enumerate() {
        out.push_str(if i > 0 { "," } else { "" });
        let _ = write!(out, "\n{indent}    ");
        json_object(out, row);
    }
    let _ = write!(out, "\n{indent}  ]");
}

/// Starts the member `name` of an object indented by `indent`.
fn member(out: &mut String, name: &str, indent: &str) {
    let _ = write!(out, ",\n{indent}  ");
    json_str(out, name);
    out.push_str(": ");
}

/// The stamped header: everything up to and including the `gates` member
/// of the document named `experiment`, the object left open.
fn header(experiment: &str, smoke: bool, gates: &[(String, &Gate)]) -> String {
    let gates: Vec<Vec<Cell>> = gates
        .iter()
        .map(|(name, g)| {
            vec![Cell::new("name", &**name), Cell::new("ok", g.ok), Cell::new("detail", &*g.detail)]
        })
        .collect();
    let out = &mut format!("{{\n  \"schema\": {SCHEMA}");
    member(out, "experiment", "");
    json_str(out, experiment);
    member(out, "smoke", "");
    out.push_str(&smoke.to_string());
    member(out, "git_rev", "");
    json_str(out, &git_rev());
    member(out, "machine", "");
    json_object(out, &machine());
    member(out, "gates", "");
    json_array(out, &gates, "");
    std::mem::take(out)
}

/// Appends each block of `report` as a member of an object indented by
/// `indent`.
fn blocks(out: &mut String, report: &Report, indent: &str) {
    for b in &report.blocks {
        assert!(!HEADER_KEYS.contains(&b.name), "block '{}' shadows a header key", b.name);
        member(out, b.name, indent);
        if b.record {
            json_object(out, &b.rows[0]);
        } else {
            json_array(out, &b.rows, indent);
        }
    }
}

/// The machine-readable rendering of `report`, header stamped.
pub fn render_json(experiment: &str, smoke: bool, report: &Report) -> String {
    let gates: Vec<(String, &Gate)> = report.gates.iter().map(|g| (g.name.clone(), g)).collect();
    let mut out = header(experiment, smoke, &gates);
    blocks(&mut out, report, "");
    out.push_str("\n}\n");
    out
}

/// One stamped document over several experiments' reports, each run under
/// its one budget: the header's `gates` carries every gate as
/// `<experiment>: <gate>`, and each experiment is a member holding its
/// `smoke` flag (always `false`) and its blocks.
pub(crate) fn render_paper_json(runs: &[(&Experiment, Report)]) -> String {
    let gates: Vec<(String, &Gate)> = runs
        .iter()
        .flat_map(|(exp, r)| r.gates.iter().map(|g| (format!("{}: {}", exp.name, g.name), g)))
        .collect();
    let mut out = header("paper_report", false, &gates);
    for (exp, report) in runs {
        assert!(!HEADER_KEYS.contains(&exp.name), "experiment '{}' shadows a header key", exp.name);
        member(&mut out, exp.name, "");
        out.push_str("{\n    \"smoke\": false");
        blocks(&mut out, report, "  ");
        out.push_str("\n  }");
    }
    out.push_str("\n}\n");
    out
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

/// Runs `exp`, prints its text report, writes its artifact (if it has one)
/// into `dir` and reports failed gates on stderr. `Ok(true)` when every
/// gate held.
pub fn drive(exp: &Experiment, smoke: bool, dir: &Path) -> std::io::Result<bool> {
    let report = (exp.run)(smoke);
    print!("{}", render_text(exp, smoke, &report));
    if let Some(artifact) = exp.artifact {
        let path = dir.join(artifact);
        std::fs::write(&path, render_json(exp.name, smoke, &report))?;
        println!("wrote {}", path.display());
    }
    report_failures(&report);
    Ok(report.failures().is_empty())
}

/// Names every failed gate of `report` on stderr.
fn report_failures(report: &Report) {
    for g in report.failures() {
        eprintln!("GATE FAIL {}: {}", g.name, g.detail);
    }
}

/// The whole `main` of a gate bin: [`drive`] into the working directory
/// under the `--smoke` flag; non-zero exit on a failed gate or write.
pub fn main(exp: &Experiment) -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    match drive(exp, smoke, Path::new(".")) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{}: failed to write {}: {e}", exp.name, exp.artifact.unwrap_or_default());
            ExitCode::FAILURE
        }
    }
}

/// The whole `main` of `paper_report`: runs the experiments named on the
/// command line, or all of `registry` in order, each under its full
/// budget, and prints every report. The simulated-clock experiments (those
/// without an artifact of their own) run on a pool of `PAPER_POOL_WIDTH`,
/// and a full run writes them into `BENCH_paper.json` in the working
/// directory. Non-zero exit on an unknown name, a failed gate or write.
pub fn paper_main(registry: &[Experiment]) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let find = |name: &String| registry.iter().find(|e| e.name == name);
    let mut ok = true;
    for name in args.iter().filter(|a| find(a).is_none()) {
        eprintln!("unknown experiment: {name}");
        ok = false;
    }
    let picked: Vec<&Experiment> = if args.is_empty() {
        registry.iter().collect()
    } else {
        args.iter().filter_map(find).collect()
    };
    let mut simulated = Vec::new();
    let pool = rayon::Pool::new(PAPER_POOL_WIDTH);
    for (i, exp) in picked.into_iter().enumerate() {
        let report = match exp.artifact {
            None => pool.install(|| (exp.run)(false)),
            Some(_) => (exp.run)(false),
        };
        print!("{}{}", if i > 0 { "\n" } else { "" }, render_text(exp, false, &report));
        report_failures(&report);
        ok &= report.failures().is_empty();
        if exp.artifact.is_none() {
            simulated.push((exp, report));
        }
    }
    if args.is_empty() {
        match std::fs::write(PAPER_ARTIFACT, render_paper_json(&simulated)) {
            Ok(()) => println!("\nwrote {PAPER_ARTIFACT}"),
            Err(e) => {
                eprintln!("paper_report: failed to write {PAPER_ARTIFACT}: {e}");
                ok = false;
            }
        }
    }
    ExitCode::from(u8::from(!ok))
}

/// The artifact of a full `paper_report` run.
pub const PAPER_ARTIFACT: &str = "BENCH_paper.json";

/// The host pool width every `BENCH_paper.json` member runs at, in
/// `paper_report` and in the test that compares the committed file. Its one
/// host-dependent number is `telemetry_profile`'s pool counters, which
/// count the calls of the pool the run is on: none on a pool of one, and
/// another thread's calls too on a shared pool.
pub(crate) const PAPER_POOL_WIDTH: usize = 2;

/// Asserts that the gates of `report` whose names start with one of
/// `names` (all of them when `names` is empty) exist and hold, naming the
/// ones that do not.
#[cfg(test)]
pub(crate) fn assert_gates_hold(report: &Report, names: &[&str]) {
    let picked = |g: &&Gate| names.is_empty() || names.iter().any(|n| g.name.starts_with(n));
    let gates: Vec<&Gate> = report.gates.iter().filter(picked).collect();
    assert!(!gates.is_empty(), "no gate named {names:?} in {:#?}", report.gates);
    let failed: Vec<_> = gates.iter().filter(|g| !g.ok).collect();
    assert!(failed.is_empty(), "failed gates {failed:#?}");
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
    fn timer_interleaves_its_rounds() {
        let mut calls = Vec::new();
        let budget = Budget { rounds: 11, sample_s: 0.0 };
        let t = time_interleaved(2, budget, &mut |v| {
            calls.push(v);
            spin(if v == 0 { 400_000 } else { 200_000 });
        });
        assert!(t.min(1) > 0.0);
        // Warm-up and calibration per variant, then strict alternation.
        let rounds: Vec<usize> = (0..11).flat_map(|_| [0, 1]).collect();
        assert_eq!(calls, [vec![0, 0, 1, 1], rounds].concat());
    }

    /// Twice the work reads as twice the time, within a quarter. The ratio
    /// depends on what else the machine runs, so it is measured optimised,
    /// in the release lane, and not in a debug run beside every other test.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "wall-clock ratio; run with --release")]
    fn timer_reads_a_known_cost_ratio() {
        let budget = Budget { rounds: 11, sample_s: 0.0 };
        let t = time_interleaved(2, budget, &mut |v| spin(if v == 0 { 400_000 } else { 200_000 }));
        let ratio = t.median_ratio(&[0], &[1]);
        assert!((1.5..=2.5).contains(&ratio), "1 : 2 closures read {ratio}");
        assert!(t.min(0) > t.min(1) && t.min(1) > 0.0);
    }

    #[test]
    fn timer_calibrates_repeats_to_the_sample_length() {
        let mut calls = [0usize; 2];
        time_interleaved(2, Budget { rounds: 3, sample_s: 2e-3 }, &mut |v| {
            calls[v] += 1;
            // A sleep lasts at least its duration however loaded the
            // machine is, so the long variant stays longer than the sample.
            match v {
                0 => spin(200),
                _ => std::thread::sleep(std::time::Duration::from_millis(3)),
            }
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
        let newer = render_json("demo", true, &Report::default())
            .replace(&format!("\"schema\": {SCHEMA}"), &format!("\"schema\": {}", SCHEMA + 1));
        assert!(parse_artifact(&newer).unwrap_err().contains("schema"));
        assert!(parse_artifact("{").is_err());
    }

    #[test]
    fn text_shows_every_visible_cell_once_and_every_gate() {
        let demo = Experiment::modeled("demo", sample_report);
        let wall = Experiment { artifact: Some("BENCH_demo.json"), ..demo };
        let text = render_text(&wall, true, &sample_report(true));
        assert!(
            text.contains("== demo / shapes — two \"shapes\" ==")
                && text.contains("— ceiling leg ==")
        );
        assert!(text.contains("label") && text.contains("2.00x") && text.contains("stored_oom"));
        assert!(!text.contains("bytes"), "a hidden cell stays out of the table");
        assert!(text.contains("gate gemm Q2 3D: ok (2.00x, need >= 1x)"));
        assert_eq!(json_num(1234.5678), "1234.57");
        assert_eq!(json_num(f64::INFINITY), "null");
        // Only a wall-clock experiment says how its times were taken.
        assert!(text.contains("demo: smoke budget") && text.contains(WALL_CLOCK));
        let modeled = render_text(&demo, true, &sample_report(true));
        assert!(!modeled.contains(WALL_CLOCK));
    }

    #[test]
    fn renders_aligned_table() {
        let mut out = String::new();
        let rows = [vec!["a".to_string(), "1.0".into()], vec!["longer".into(), "2".into()]];
        render_table(&mut out, "Demo", &["name", "value"], &rows);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines,
            ["== Demo ==", "  name  value", "---------------", "     a    1.0", "longer      2"]
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_rows_panic() {
        render_table(&mut String::new(), "x", &["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn cell_texts_keep_their_precision() {
        let text = |c: Cell| c.text.unwrap();
        let nums = [0.0, 123.456, 1.23456, 0.012345, 1.2e-5].map(|x| text(Cell::new("x", x)));
        assert_eq!(nums, ["0", "123.5", "1.235", "0.01235", "1.200e-5"]);
        assert_eq!(text(Cell::pct("p", 0.123)), "12.3%");
        assert_eq!(text(Cell::sci("e", 10.123456789, 6)), "1.012346e1");
        assert_eq!(text(Cell::new("flag", true)), "yes");
    }

    #[test]
    fn a_stamp_is_dirty_when_a_tracked_file_beyond_the_artifacts_changed() {
        // Clean tree, and a tree whose only edits are regenerated artifacts.
        assert!(!edits_beyond_artifacts(""));
        assert!(!edits_beyond_artifacts(" M BENCH_paper.json\nM  BENCH_host_kernels.json\n"));
        // Any other tracked edit, staged or not, deleted or renamed.
        assert!(edits_beyond_artifacts(" M crates/bench/src/harness.rs\n"));
        assert!(edits_beyond_artifacts(" M BENCH_paper.json\nD  README.md\n"));
        assert!(edits_beyond_artifacts("R  src/old.rs -> src/new.rs\n"));
        assert!(edits_beyond_artifacts("MM \"docs/a b.md\"\n"));
        // A file that only looks like an artifact in part of its name.
        assert!(edits_beyond_artifacts(" M BENCH_paper.json.bak\n"));
    }

    #[test]
    fn the_paper_artifact_nests_each_experiment_under_one_header() {
        let a = Experiment::modeled("fig98_demo", sample_report);
        let b = Experiment::modeled("tab99_demo", sample_report);
        let runs = [(&a, sample_report(true)), (&b, sample_report(false))];
        let doc = parse_artifact(&render_paper_json(&runs)).unwrap();
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("paper_report"));
        let gates = doc.get("gates").and_then(Json::as_arr).unwrap();
        let name = |g: &Json| g.get("name").and_then(Json::as_str).unwrap().to_string();
        let names: Vec<String> = gates.iter().map(name).collect();
        assert_eq!(names, ["fig98_demo: gemm Q2 3D", "tab99_demo: gemm Q2 3D"]);
        assert_eq!(gates[1].get("ok"), Some(&Json::Bool(false)));
        let demo = doc.get("tab99_demo").unwrap();
        assert_eq!(demo.get("smoke"), Some(&Json::Bool(false)));
        let shapes = demo.get("shapes").and_then(Json::as_arr).unwrap();
        assert_eq!(shapes[0].get("speedup").and_then(Json::as_f64), Some(2.0));
        assert_eq!(demo.get("ceiling").and_then(|c| c.get("stored_oom")), Some(&Json::Bool(true)));
    }
}
