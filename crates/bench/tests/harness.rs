//! The gate driver end to end, and the committed artifacts it wrote.

use std::path::Path;

use blast_bench::experiments::{host_kernels, pcg_streaming, EXPERIMENTS};
use blast_bench::harness::{self, Block, Cell, Experiment, Gate, Report, PAPER_ARTIFACT};
use blast_telemetry::chrome::Json;

fn one_gate(smoke: bool) -> Report {
    Report {
        blocks: vec![Block::table("rows", "rows", vec![vec![Cell::new("label", "only")]])],
        // Holds under the smoke budget only.
        gates: vec![Gate::new("tiled beats naive", smoke, "0.90x, need >= 1x")],
    }
}

#[test]
fn a_failing_gate_is_in_the_file_and_in_the_status() {
    let artifact = "BENCH_driver_demo.json";
    let exp = Experiment { name: "driver_demo", artifact: Some(artifact), run: one_gate };
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (smoke, held) in [(true, true), (false, false)] {
        assert_eq!(harness::drive(&exp, smoke, dir).unwrap(), held);
        let text = std::fs::read_to_string(dir.join(artifact)).unwrap();
        let doc = harness::parse_artifact(&text).unwrap();
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("driver_demo"));
        let gate = &doc.get("gates").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(gate.get("ok"), Some(&Json::Bool(held)));
        assert_eq!(gate.get("detail").and_then(Json::as_str), Some("0.90x, need >= 1x"));
    }
    // An unwritable directory is an error, not a silent pass.
    assert!(harness::drive(&exp, true, &dir.join("no-such-directory")).is_err());
}

/// Every `BENCH_*.json` at the repository root was written by this harness
/// (a stale one lacks the stamped header), belongs to a gate bin or to
/// `paper_report`, carries its blocks, and records no failed gate.
/// `BENCH_paper.json` holds every simulated-clock experiment of the
/// registry (no artifact of its own), `matfree_ceiling` among them, and no
/// wall-clock one.
#[test]
fn committed_artifacts_parse_and_carry_the_stamped_header() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let simulated: Vec<&str> =
        EXPERIMENTS.iter().filter(|e| e.artifact.is_none()).map(|e| e.name).collect();
    assert!(simulated.contains(&"matfree_ceiling"), "{simulated:?}");
    let known = [
        (host_kernels::EXPERIMENT, &["shapes", "az_kernels", "point_physics", "summary"][..]),
        (pcg_streaming::EXPERIMENT, &["shapes", "lockstep", "gpu"]),
    ];
    let mut seen = 0;
    for entry in std::fs::read_dir(&root).unwrap() {
        let path = entry.unwrap().path();
        let file = path.file_name().unwrap().to_str().unwrap().to_string();
        if !(file.starts_with("BENCH_") && file.ends_with(".json")) {
            continue;
        }
        let (name, members) = if file == PAPER_ARTIFACT {
            ("paper_report", &simulated[..])
        } else {
            let (exp, blocks) = known
                .iter()
                .find(|(e, _)| e.artifact == Some(&file))
                .unwrap_or_else(|| panic!("{file}: no gate bin writes it"));
            (exp.name, *blocks)
        };
        let doc = harness::parse_artifact(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some(name), "{file}");
        // Written by a committed tree: a `-dirty` stamp names a commit whose
        // code did not write the file.
        let rev = doc.get("git_rev").and_then(Json::as_str);
        assert!(rev.is_some_and(|r| r != "unknown" && !r.ends_with("-dirty")), "{file}: {rev:?}");
        for member in members {
            assert!(doc.get(member).is_some(), "{file} lacks the member '{member}'");
        }
        for gate in doc.get("gates").and_then(Json::as_arr).unwrap() {
            assert_eq!(gate.get("ok"), Some(&Json::Bool(true)), "{file}: {gate:?}");
        }
        let wall = EXPERIMENTS.iter().filter(|e| e.artifact.is_some() && file == PAPER_ARTIFACT);
        for exp in wall {
            assert!(doc.get(exp.name).is_none(), "wall-clock {} in {file}", exp.name);
        }
        seen += 1;
    }
    assert_eq!(seen, known.len() + 1, "a gate bin's or paper_report's artifact is not committed");
}
