//! Regenerates every table and figure of the paper's evaluation in one run.
//!
//! Optionally pass experiment names to run a subset:
//! `cargo run -p blast-bench --release --bin paper_report -- fig11_speedup`.
//! A lone name prints that artifact and nothing after it.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names = if args.is_empty() {
        blast_bench::experiments::EXPERIMENTS.iter().map(|(name, _)| name.to_string()).collect()
    } else {
        args
    };
    let lone = names.len() == 1;
    for name in names {
        match blast_bench::experiments::run_by_name(&name) {
            Some(report) if lone => print!("{report}"),
            Some(report) => {
                println!("{report}");
                println!();
            }
            None => eprintln!("unknown experiment: {name}"),
        }
    }
}
