//! Shared command-line plumbing for the `mtk` driver, `speed_comparison`
//! and `trace_check`: one pass over argv against a declared flag table
//! ([`Args`]), usage errors, the failure-policy knob, and the
//! `--trace-json` export, so flags and telemetry behave identically
//! across tools.

use mtk_core::health::FailurePolicy;
use mtk_trace::{TraceConfig, TraceReport};
use std::io::Write;

/// How a declared flag takes its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// Any string that does not start with `--`.
    Str,
    /// A non-negative integer.
    Int,
    /// A finite number.
    Num,
}

/// One declared flag: its `--name` and how it takes its value.
pub type Flag = (&'static str, Kind);

/// The arguments of one command, read once against its declared flags.
#[derive(Debug)]
pub struct Args {
    cmd: String,
    declared: Vec<Flag>,
    /// Each flag argv gave, with its value (empty for a switch), already
    /// checked against the flag's kind.
    values: Vec<(&'static str, String)>,
    /// The tokens that are neither a flag nor a flag's value, in order.
    pub positionals: Vec<String>,
}

impl Args {
    /// Walks `argv` (the arguments after the command `cmd`) once against
    /// the flag groups `table`. A token starting with `--` is a flag;
    /// any other token is the value of the flag before it, when that
    /// flag takes one, or else a positional. A value may start with one
    /// dash, as `-inf` does.
    ///
    /// # Errors
    ///
    /// The usage message of the first flag that is undeclared, repeated,
    /// or missing its value, or whose value does not parse as its kind.
    pub fn parse(cmd: &str, argv: &[String], table: &[&[Flag]]) -> Result<Args, String> {
        let mut args = Args {
            cmd: cmd.to_string(),
            declared: table.concat(),
            values: Vec::new(),
            positionals: Vec::new(),
        };
        let mut tokens = argv.iter().peekable();
        while let Some(token) = tokens.next() {
            if !token.starts_with("--") {
                args.positionals.push(token.clone());
                continue;
            }
            let Some(&(name, kind)) = args.declared.iter().find(|(n, _)| n == token) else {
                return Err(format!("{cmd}: unknown flag {token}"));
            };
            if args.values.iter().any(|(n, _)| *n == name) {
                return Err(format!("{cmd}: repeated flag {name}"));
            }
            let value = match kind {
                Kind::Switch => String::new(),
                _ => checked(name, kind, tokens.next_if(|v| !v.starts_with("--")))?,
            };
            args.values.push((name, value));
        }
        Ok(args)
    }

    /// Refuses the first flag argv gave that `reads` does not read: a
    /// declared flag the job, request or mode `what` would drop.
    ///
    /// # Errors
    ///
    /// The usage message naming the flag and `what`.
    pub fn refuse_unread(&self, what: &str, reads: impl Fn(&str) -> bool) -> Result<(), String> {
        match self.values.iter().find(|(name, _)| !reads(name)) {
            Some((name, _)) => Err(format!("{}: {name} is not read by {what}", self.cmd)),
            None => Ok(()),
        }
    }

    /// Refuses `flag` when argv gives it without any of `partners`, the
    /// flags it is read under.
    ///
    /// # Errors
    ///
    /// The usage message naming the flag and its partners.
    pub fn needs(&self, flag: &str, partners: &[&str]) -> Result<(), String> {
        let given = |name: &str| self.values.iter().any(|(n, _)| *n == name);
        if !given(flag) || partners.iter().any(|p| given(p)) {
            return Ok(());
        }
        Err(format!(
            "{}: {flag} is not read without {}",
            self.cmd,
            partners.join(" or ")
        ))
    }

    /// The positionals, when there are at most `max` of them.
    ///
    /// # Errors
    ///
    /// The usage message naming the first positional past the `max`th.
    pub fn at_most(&self, max: usize) -> Result<&[String], String> {
        match self.positionals.get(max) {
            Some(extra) => Err(format!("{}: unexpected argument `{extra}`", self.cmd)),
            None => Ok(&self.positionals),
        }
    }

    /// The value of the string flag `name` (empty for a switch), when
    /// given. The command must declare `name`.
    pub fn str(&self, name: &str) -> Option<&str> {
        debug_assert!(
            self.declared.iter().any(|(n, _)| *n == name),
            "{} reads undeclared flag {name}",
            self.cmd
        );
        let value = self.values.iter().find(|(n, _)| *n == name);
        value.map(|(_, v)| v.as_str())
    }

    /// True when argv gives the flag `name`, with or without a value.
    pub fn has(&self, name: &str) -> bool {
        self.str(name).is_some()
    }

    /// The value of the integer flag `name`, or `default` when absent.
    pub fn int(&self, name: &str, default: usize) -> usize {
        self.str(name)
            .map_or(default, |v| v.parse().expect("checked by parse"))
    }

    /// The value of the number flag `name`, or `default` when absent.
    pub fn num(&self, name: &str, default: f64) -> f64 {
        self.str(name)
            .map_or(default, |v| v.parse().expect("checked by parse"))
    }
}

/// Checks `raw`, the token after the flag `name` (`None` when there is
/// none), against the flag's `kind`.
fn checked(name: &str, kind: Kind, raw: Option<&String>) -> Result<String, String> {
    let what = match kind {
        Kind::Int => "a non-negative integer",
        _ => "a finite number",
    };
    let Some(raw) = raw else {
        return Err(match kind {
            Kind::Str => format!("{name}: missing value"),
            _ => format!("{name}: missing value (want {what})"),
        });
    };
    let ok = match kind {
        Kind::Int => raw.parse::<usize>().is_ok(),
        Kind::Num => raw.parse::<f64>().is_ok_and(f64::is_finite),
        _ => true,
    };
    ok.then(|| raw.clone())
        .ok_or_else(|| format!("{name}: `{raw}` is not {what}"))
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
pub fn failure_policy(args: &Args) -> FailurePolicy {
    if args.has("--fail-fast") {
        FailurePolicy::FailFast
    } else {
        FailurePolicy::quarantine(args.int("--max-failures", 32))
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
pub fn trace_config(args: &Args) -> TraceConfig {
    if args.has("--trace-deterministic") {
        TraceConfig::deterministic()
    } else {
        TraceConfig::full()
    }
}

/// Prints the shared telemetry footer on `out` (stdout, unless stdout
/// carries the command's product) and, when `--trace-json <path>` was
/// given, writes the versioned JSON trace there (the `BENCH_*.json`
/// artifact of a run) under the mode from [`trace_config`].
pub fn emit_trace(args: &Args, report: &TraceReport, out: &mut dyn Write) {
    let _ = write!(out, "\n{}", report.render_text());
    if let Some(path) = args.str("--trace-json") {
        let json = report.to_json(trace_config(args).mode);
        match std::fs::write(path, &json) {
            Ok(()) => {
                let _ = writeln!(out, "trace written to {path}");
            }
            Err(e) => {
                eprintln!("error: could not write trace to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &[Flag] = &[
        ("--fast", Kind::Switch),
        ("--out", Kind::Str),
        ("--threads", Kind::Int),
        ("--target", Kind::Num),
    ];

    fn parse(argv: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        Args::parse("mtk t", &argv, &[TABLE])
    }

    fn error(argv: &[&str]) -> String {
        parse(argv).expect_err("a usage error")
    }

    #[test]
    fn every_kind_reads_back_and_absent_flags_default() {
        let args = parse(&["--threads", "3", "--fast", "--target", "0.25", "--out", "x"]).unwrap();
        assert!(args.has("--fast"));
        assert_eq!(args.str("--out"), Some("x"));
        assert_eq!(args.int("--threads", 1), 3);
        assert_eq!(args.num("--target", 0.05), 0.25);
        let args = parse(&[]).unwrap();
        assert!(!args.has("--fast"));
        assert_eq!(args.str("--out"), None);
        assert_eq!(args.int("--threads", 1), 1);
        assert_eq!(args.num("--target", 0.05), 0.05);
    }

    #[test]
    fn an_undeclared_flag_is_named() {
        assert_eq!(
            error(&["--fast", "--thread", "2"]),
            "mtk t: unknown flag --thread"
        );
        assert_eq!(error(&["--"]), "mtk t: unknown flag --");
    }

    #[test]
    fn a_missing_value_is_an_error_and_never_the_next_flag() {
        assert_eq!(error(&["--out"]), "--out: missing value");
        assert_eq!(error(&["--out", "--fast"]), "--out: missing value");
        assert_eq!(
            error(&["--threads", "--fast"]),
            "--threads: missing value (want a non-negative integer)"
        );
        assert_eq!(
            error(&["--target"]),
            "--target: missing value (want a finite number)"
        );
    }

    #[test]
    fn a_malformed_value_is_quoted() {
        assert_eq!(
            error(&["--threads", "garbage"]),
            "--threads: `garbage` is not a non-negative integer"
        );
        assert_eq!(
            error(&["--threads", "-1"]),
            "--threads: `-1` is not a non-negative integer"
        );
        assert_eq!(
            error(&["--target", "wide"]),
            "--target: `wide` is not a finite number"
        );
        assert_eq!(
            error(&["--target", "NaN"]),
            "--target: `NaN` is not a finite number"
        );
    }

    #[test]
    fn a_repeated_flag_is_an_error() {
        assert_eq!(
            error(&["--threads", "1", "--fast", "--threads", "2"]),
            "mtk t: repeated flag --threads"
        );
        assert_eq!(error(&["--fast", "--fast"]), "mtk t: repeated flag --fast");
    }

    #[test]
    fn a_one_dash_token_is_a_value() {
        assert_eq!(
            error(&["--target", "-inf"]),
            "--target: `-inf` is not a finite number"
        );
        let args = parse(&["--target", "-0.5", "--out", "-"]).unwrap();
        assert_eq!(args.num("--target", 0.0), -0.5);
        assert_eq!(args.str("--out"), Some("-"));
        assert!(args.positionals.is_empty());
    }

    #[test]
    fn positionals_may_follow_flags_and_a_switch_takes_no_value() {
        let args = parse(&["a.mtk", "--threads", "2", "b.mtk", "--fast", "c.mtk"]).unwrap();
        assert_eq!(args.positionals, ["a.mtk", "b.mtk", "c.mtk"]);
        assert_eq!(args.int("--threads", 1), 2);
        assert_eq!(args.at_most(3).unwrap().len(), 3);
        assert_eq!(
            args.at_most(2).unwrap_err(),
            "mtk t: unexpected argument `c.mtk`"
        );
        assert_eq!(
            args.at_most(0).unwrap_err(),
            "mtk t: unexpected argument `a.mtk`"
        );
    }

    #[test]
    fn a_declared_flag_that_is_not_read_is_named() {
        let args = parse(&["--fast", "--threads", "2", "--out", "x"]).unwrap();
        assert_eq!(
            args.refuse_unread("a t job", |f| f != "--out"),
            Err("mtk t: --out is not read by a t job".to_string())
        );
        assert_eq!(args.refuse_unread("a t job", |_| true), Ok(()));
        assert_eq!(
            args.needs("--threads", &["--target", "--fast"]),
            Ok(()),
            "a partner is given"
        );
        assert_eq!(
            args.needs("--out", &["--target"]),
            Err("mtk t: --out is not read without --target".to_string())
        );
        let args = parse(&["--threads", "2"]).unwrap();
        assert_eq!(
            args.needs("--threads", &["--target", "--fast"]),
            Err("mtk t: --threads is not read without --target or --fast".to_string())
        );
        assert_eq!(args.needs("--out", &["--target"]), Ok(()), "absent");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "mtk t reads undeclared flag --seed")]
    fn reading_an_undeclared_flag_is_a_bug() {
        parse(&[]).unwrap().int("--seed", 0);
    }
}
