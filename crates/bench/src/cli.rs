//! Shared command-line plumbing for the `mtk` driver and
//! `speed_comparison`: flag parsing, usage errors, the failure-policy
//! knob, and the `--trace-json` export, so flags and telemetry behave
//! identically across tools.

use mtk_core::health::FailurePolicy;
use mtk_trace::{TraceConfig, TraceReport};

/// Value of `--<name> N`, or `default` when absent. A present flag
/// whose value is missing or not a non-negative integer is a usage
/// error: message on stderr, exit 2.
pub fn flag(name: &str, default: usize) -> usize {
    parsed_flag(name, "a non-negative integer", |v| v.parse().ok()).unwrap_or(default)
}

/// True when `--<name>` is present.
pub fn bool_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Value of `--<name> X` as a float, or `default` when absent. A
/// present flag whose value is missing or not a finite number exits 2
/// like [`flag`].
pub fn f64_flag(name: &str, default: f64) -> f64 {
    parsed_flag(name, "a finite number", |v| {
        v.parse().ok().filter(|x: &f64| x.is_finite())
    })
    .unwrap_or(default)
}

/// The parsed value of `--<name>`, `None` when the flag is absent; a
/// missing or unparsable value exits 2 with
/// ``error: --<name>: `<value>` is not <what>``.
fn parsed_flag<T>(name: &str, what: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    let value = flag_value(name)?;
    let parsed = value.as_deref().and_then(parse);
    if parsed.is_none() {
        match value {
            Some(v) => die(format!("{name}: `{v}` is not {what}")),
            None => die(format!("{name}: missing value (want {what})")),
        }
    }
    parsed
}

/// Value of `--<name> <string>`, when present. A present flag whose
/// value is missing (it is the last argument, or the next one is
/// another `--flag`) exits 2 with `error: --<name>: missing value`.
pub fn str_flag(name: &str) -> Option<String> {
    let value = flag_value(name)?;
    Some(value.unwrap_or_else(|| die(format!("{name}: missing value"))))
}

/// The token after `--<name>`: `None` when the flag is absent,
/// `Some(None)` when nothing but another `--flag` follows it. A value
/// with one leading dash, such as `-inf`, is still a value.
fn flag_value(name: &str) -> Option<Option<String>> {
    let mut args = std::env::args().skip_while(|a| a != name);
    args.next()?;
    Some(args.next().filter(|v| !v.starts_with("--")))
}

/// Exits 2 on the first `--flag` among the process arguments that
/// `known` does not list, naming it and the command `cmd`.
pub fn reject_unknown_flags(cmd: &str, known: &[String]) {
    let unknown = std::env::args()
        .skip(1)
        .find(|a| a.starts_with("--") && !known.contains(a));
    if let Some(flag) = unknown {
        die(format!("{cmd}: unknown flag {flag}"));
    }
}

/// Prints `error: <msg>` on stderr and exits 2, the usage-error status
/// of every binary.
pub fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The failure policy shared by every sweep-running binary:
/// quarantine-with-a-cap by default (`--max-failures N`, default 32),
/// `--fail-fast` to abort on the first failure.
pub fn failure_policy() -> FailurePolicy {
    if bool_flag("--fail-fast") {
        FailurePolicy::FailFast
    } else {
        FailurePolicy::quarantine(flag("--max-failures", 32))
    }
}

/// Renders `threads` the way the binaries report it (`0` = all cores).
pub fn threads_label(threads: usize) -> String {
    if threads == 0 {
        "all".to_string()
    } else {
        threads.to_string()
    }
}

/// The flag-driven trace configuration shared by every binary: full
/// tracing by default, `--trace-deterministic` to drop the
/// schedule-dependent `timing` section (and span recording with it) so
/// the written JSON is byte-identical at any thread count.
pub fn trace_config() -> TraceConfig {
    if bool_flag("--trace-deterministic") {
        TraceConfig::deterministic()
    } else {
        TraceConfig::full()
    }
}

/// Prints the shared telemetry footer and, when `--trace-json <path>`
/// was given, writes the versioned JSON trace there (the `BENCH_*.json`
/// artifact of a run) under the mode from [`trace_config`].
pub fn emit_trace(report: &TraceReport) {
    print!("\n{}", report.render_text());
    if let Some(path) = str_flag("--trace-json") {
        let json = report.to_json(trace_config().mode);
        match std::fs::write(&path, &json) {
            Ok(()) => println!("trace written to {path}"),
            Err(e) => {
                eprintln!("error: could not write trace to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
