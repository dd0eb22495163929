//! The gate driver end to end, and the committed artifacts it wrote.

use std::path::Path;

use blast_bench::experiments::{fleet_routing, host_kernels, matfree_ceiling, pcg_streaming};
use blast_bench::harness::{self, Block, Cell, Experiment, Gate, Report};
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
    let exp = Experiment { name: "driver_demo", artifact: "BENCH_driver_demo.json", run: one_gate };
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (smoke, held) in [(true, true), (false, false)] {
        assert_eq!(harness::drive(&exp, smoke, dir).unwrap(), held);
        let text = std::fs::read_to_string(dir.join(exp.artifact)).unwrap();
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
/// (a stale one lacks the stamped header), belongs to a gate bin, carries
/// that bin's blocks, and records no failed gate.
#[test]
fn committed_artifacts_parse_and_carry_the_stamped_header() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let known = [
        (host_kernels::EXPERIMENT, &["shapes", "az_kernels", "point_physics", "summary"][..]),
        (pcg_streaming::EXPERIMENT, &["shapes", "lockstep", "gpu"]),
        (matfree_ceiling::EXPERIMENT, &["shapes", "ceiling"]),
        (fleet_routing::EXPERIMENT, &["jobs", "statics", "routed"]),
    ];
    let mut seen = 0;
    for entry in std::fs::read_dir(&root).unwrap() {
        let path = entry.unwrap().path();
        let file = path.file_name().unwrap().to_str().unwrap().to_string();
        if !(file.starts_with("BENCH_") && file.ends_with(".json")) {
            continue;
        }
        let (exp, blocks) = known
            .iter()
            .find(|(e, _)| e.artifact == file)
            .unwrap_or_else(|| panic!("{file}: no gate bin writes it"));
        let doc = harness::parse_artifact(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some(exp.name), "{file}");
        assert!(
            doc.get("git_rev").and_then(Json::as_str).is_some_and(|r| r != "unknown"),
            "{file}"
        );
        for block in *blocks {
            assert!(doc.get(block).is_some(), "{file} lacks the block '{block}'");
        }
        for gate in doc.get("gates").and_then(Json::as_arr).unwrap() {
            assert_eq!(gate.get("ok"), Some(&Json::Bool(true)), "{file}: {gate:?}");
        }
        seen += 1;
    }
    assert_eq!(seen, known.len(), "a gate bin's artifact is not committed");
}
