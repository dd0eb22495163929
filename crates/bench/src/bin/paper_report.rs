//! Regenerates every table and figure of the paper's evaluation in one run.
//!
//! Optionally pass experiment names to run a subset:
//! `cargo run -p blast-bench --release --bin paper_report -- fig11_speedup`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names = if args.is_empty() {
        blast_bench::experiments::EXPERIMENTS.iter().map(|(name, _)| name.to_string()).collect()
    } else {
        args
    };
    for name in names {
        match blast_bench::experiments::run_by_name(&name) {
            Some(report) => {
                println!("{report}");
                println!();
            }
            None => eprintln!("unknown experiment: {name}"),
        }
    }
}
