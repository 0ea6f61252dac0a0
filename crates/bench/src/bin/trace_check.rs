//! Validates a `--trace-json` artifact against the observability
//! contract (DESIGN.md §10).
//!
//! Usage: `trace_check <trace.json> [more.json ...]`
//!
//! Exits 1 if any file fails to parse or violates the documented
//! schema (wrong schema name/version, counter keys out of registry
//! order, malformed histogram, missing/extra timing section, ...), and
//! 2 on a `--flag` (it takes none) or no file. CI runs this over the
//! smoke run's trace so a schema drift without a version bump cannot
//! land silently.

use mtk_bench::cli::{die, Args};
use mtk_trace::json::validate_report;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse("trace_check", &argv, &[]).unwrap_or_else(|e| die(e));
    let paths = &args.positionals;
    if paths.is_empty() {
        eprintln!("usage: trace_check <trace.json> [more.json ...]");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in paths {
        let contents = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{path}: unreadable: {e}");
                failed = true;
                continue;
            }
        };
        match validate_report(&contents) {
            Ok(()) => println!(
                "{path}: valid mtk-trace v{} report",
                mtk_trace::SCHEMA_VERSION
            ),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
