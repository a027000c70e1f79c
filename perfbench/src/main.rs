//! The repository benchmark. One process runs one workload with one thread
//! issuing batches back to back (a closed loop with one client), checks every
//! answer against an oracle computed apart from the program, and prints one
//! JSON result line:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` the run records spans around its calls into the program and
//! the result carries the per-layer metrics, while the spans, their self
//! times and this run's end-to-end figures go to
//! `<out-dir>/trace-<workload>-<seed>.json`.

mod check;
mod common;
mod ingest_recover;
mod join_filter;
mod join_store;
mod layers;
mod tiered_churn;
mod trace;

use common::{Args, Report};
use serde::Value;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    if let Err(err) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {err}", args.out_dir.display());
        std::process::exit(2);
    }
    let mut report = Report::new(args.trace);
    match args.workload.as_str() {
        "join_filter" => join_filter::run(&mut report, args.seed, args.seconds),
        "join_store" => join_store::run(&mut report, args.seed, args.seconds),
        "ingest_recover" => ingest_recover::run(&mut report, &args),
        "tiered_churn" => tiered_churn::run(&mut report, args.seed, args.seconds),
        _ => unreachable!("workload names are checked by Args::parse"),
    }
    if args.trace {
        let path = args
            .out_dir
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        let doc = report.tracer.to_json(vec![
            ("workload".into(), Value::Str(args.workload.clone())),
            ("seed".into(), Value::U64(args.seed)),
            ("end_to_end".into(), report.end_to_end_json()),
        ]);
        let text = serde_json::to_string(&doc).expect("trace serialization cannot fail");
        if let Err(err) = std::fs::write(&path, text) {
            eprintln!("perfbench: cannot write {}: {err}", path.display());
            std::process::exit(1);
        }
    }
    let result = report.result_json(args.trace);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serialization cannot fail")
    );
}
