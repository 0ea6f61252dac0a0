//! End-to-end contract of the `mtk` driver binary, through real
//! process invocations:
//!
//! * `mtk lint` exit codes: 0 clean (a fixture and a golden), 1 on
//!   findings (0 with `--warn-only`), 2 on parse errors — with every
//!   `LintIssue` variant exercised through the file-based path and
//!   findings pointing at the offending `.mtk` source line.
//! * Malformed input yields a `file:line:col: error[E0xx]` diagnostic
//!   and exit 2, never a panic.
//! * `mtk screen --trace-deterministic` writes byte-identical JSON at
//!   thread counts 1, 2 and 8 on a golden example, and it passes
//!   `trace_check`.
//! * `mtk gen <stem>` and `mtk gen --all --dir D` reproduce the
//!   checked-in golden files exactly.
//! * A malformed or missing numeric flag value exits 2 with a message —
//!   on the flow commands and on `mtk client` alike — instead of
//!   silently running with the default; so does a string flag with no
//!   value, which is never taken from the next `--flag`.
//! * A sizing bracket outside `0 < lo < hi` exits 2 with a message.
//! * `mtk size` records a top-level `size` span around the actual run.
//! * `mtk repro --list` prints every registered experiment id, and an
//!   unknown id exits 2.
//! * `mtk hybrid` screens and verifies in SPICE end to end; its trace
//!   passes `trace_check`, and its deterministic trace is byte-identical
//!   at 1 and 2 threads on the 3-bit adder and the ALU slice.
//! * A golden design exported as a SPICE deck imports back to the same
//!   bytes; a hint-stripped deck imported to stdout prints the bytes
//!   `--out` writes and nothing else, and `--raw` on it writes a
//!   rawfile; a hand-written `.subckt` deck imports and sizes; a screen's
//!   rawfile, VCD and deterministic trace are byte-identical at 1 and 8
//!   threads, the rawfile holds points and the trace passes
//!   `trace_check`.
//! * `mtk mc --smoke` with a store passes `trace_check` cold and warm,
//!   and the warm rerun simulates nothing.
//! * `mtk size`'s deterministic trace is byte-identical run to run on
//!   the 16x16 multiplier and the 3-bit adder (a plain size job reads no
//!   `--threads`), and passes `trace_check`; a rerun over a store another
//!   process filled simulates nothing.
//! * `mtk cluster --smoke` on the 16x16 multiplier: its deterministic
//!   trace is byte-identical at 1, 2 and 8 threads and passes
//!   `trace_check`, the returned width obeys the never-worse rule, and a
//!   warm `--store` rerun simulates nothing.
//! * Every `mtk` command, `speed_comparison` and `trace_check` exit 2
//!   on an unknown `--flag`, naming it, before they print anything; each
//!   job kind accepts every flag it reads at once.
//! * Flags are parsed before any work runs: a malformed typed value
//!   exits 2 with nothing printed or written. A flag's value is never
//!   read as a positional, and a stray positional exits 2.
//! * Each job command, and `mtk client` for each job kind, accepts a
//!   flag it declares exactly when the job its flags resolve to reads it
//!   (`size --clusters N` a cluster job, `hybrid --clusters N` a cluster
//!   leg then a hybrid job); a refused flag exits 2 naming the flag and
//!   the job, with nothing printed or written. A flag read only under a
//!   partner (`--t-stop` under `--raw`, `sta`'s vector and W/L flags
//!   under `--raw`/`--vcd`, `export`'s `--w-over-l` without `--cmos`)
//!   exits 2 without it, and so does a job flag on a request that is not
//!   a job.
//! * DESIGN.md §11.4's usage block is the text `mtk` prints with no
//!   arguments.
//! * `speed_comparison` rejects a missing baseline with exit 2 before
//!   it times anything.
//! * `mtk serve` with a store replays a repeated `mtk client` job
//!   byte-identically (visible in its `status` counters), runs `size
//!   --clusters` as the cluster job, and drains cleanly on SIGTERM; a
//!   second server stops on a `shutdown` request.

use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn mtk(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mtk"))
        .args(args)
        .output()
        .expect("spawn mtk")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Writes a test `.mtk` file under the target tmp dir and returns its
/// path as a string.
fn fixture(name: &str, content: &str) -> String {
    let path = std::env::temp_dir().join(format!("mtk_cli_{}_{name}.mtk", std::process::id()));
    std::fs::write(&path, content).expect("write fixture");
    path.to_string_lossy().into_owned()
}

/// Path of a checked-in golden example (the workspace root is two
/// levels above this crate).
fn golden(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(format!("{stem}.mtk"))
}

const CLEAN: &str = "mtk 1\ncircuit t\nnet a\nnet y\ninput a\ncell g1 inv a -> y\noutput y\nend\n";

#[test]
fn lint_clean_file_exits_zero() {
    let path = fixture("clean", CLEAN);
    let out = mtk(&["lint", &path]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("clean"));
    let adder = golden("adder3");
    let out = mtk(&["lint", adder.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
}

#[test]
fn lint_floating_net_exits_one_with_source_line() {
    let src = "mtk 1\ncircuit t\nnet f\nnet y\ncell g1 inv f -> y\noutput y\nend\n";
    let path = fixture("floating", src);
    let out = mtk(&["lint", &path]);
    assert_eq!(out.status.code(), Some(1));
    // `net f` is declared on line 3 of the fixture.
    assert!(
        stdout(&out).contains(":3: warning[floating-net]: floating net 'f'"),
        "stdout: {}",
        stdout(&out)
    );
}

#[test]
fn lint_dangling_net_and_unreachable_cell_exit_one() {
    let src = "mtk 1\ncircuit t\nnet a\nnet m\nnet d\ninput a\ncell g1 inv a -> m\n\
               cell g2 inv a -> d\noutput m\nend\n";
    let path = fixture("dangling", src);
    let out = mtk(&["lint", &path]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(
        text.contains(":5: warning[dangling-net]: dangling net 'd'"),
        "stdout: {text}"
    );
    assert!(
        text.contains(":8: warning[unreachable-cell]: cell 'g2'"),
        "stdout: {text}"
    );
}

#[test]
fn lint_unused_input_exits_one_and_warn_only_downgrades() {
    let src = "mtk 1\ncircuit t\nnet a\nnet b\nnet y\ninput a b\ncell g1 inv a -> y\n\
               output y\nend\n";
    let path = fixture("unused", src);
    let out = mtk(&["lint", &path]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stdout(&out).contains(":4: warning[unused-input]: primary input 'b'"),
        "stdout: {}",
        stdout(&out)
    );
    // --warn-only keeps the findings but downgrades the exit code.
    let out = mtk(&["lint", &path, "--warn-only"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("warning[unused-input]"));
}

#[test]
fn malformed_input_is_a_diagnostic_not_a_panic() {
    // Unknown cell kind, with a "did you mean" hint.
    let src = "mtk 1\ncircuit t\nnet a\nnet y\ninput a\ncell g1 nnad2 a a -> y\noutput y\nend\n";
    let path = fixture("badkind", src);
    let out = mtk(&["lint", &path]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains(":6:9: error[E007]"), "stderr: {err}");
    assert!(err.contains("nand2"), "stderr: {err}");

    // Missing header.
    let path = fixture("badheader", "circuit t\nend\n");
    let out = mtk(&["lint", &path]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("error[E001]"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn missing_file_and_missing_args_exit_two() {
    let out = mtk(&["lint", "/nonexistent/nope.mtk"]);
    assert_eq!(out.status.code(), Some(2));
    let out = mtk(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage"));
    let out = mtk(&["frobnicate", "x.mtk"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn flow_commands_accept_a_golden_file() {
    let path = golden("adder3");
    let path = path.to_str().unwrap();
    let out = mtk(&["sta", path]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("critical delay"));
    let out = mtk(&["screen", path, "--stride", "512"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("screened"));
}

#[test]
fn deterministic_screen_trace_is_byte_identical_across_threads() {
    let path = golden("adder3");
    let path = path.to_str().unwrap();
    let mut traces = Vec::new();
    for threads in ["1", "2", "8"] {
        let json = temp_json(&format!("trace_t{threads}"));
        let out = mtk(&[
            "screen",
            path,
            "--stride",
            "128",
            "--threads",
            threads,
            "--trace-deterministic",
            "--trace-json",
            &json,
        ]);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        traces.push(std::fs::read(&json).expect("trace artifact"));
        assert_trace_checks(&json);
    }
    assert_eq!(traces[0], traces[1], "threads 1 vs 2");
    assert_eq!(traces[0], traces[2], "threads 1 vs 8");
}

#[test]
fn gen_reproduces_the_checked_in_goldens() {
    let out = mtk(&["gen", "--list"]);
    assert_eq!(out.status.code(), Some(0));
    // Each `--list` line is `<stem>  <description>`; the stem is the
    // first whitespace-separated token.
    let stems: Vec<String> = stdout(&out)
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_string)
        .collect();
    assert!(stems.contains(&"adder3".to_string()));
    for stem in &stems {
        let out = mtk(&["gen", stem]);
        assert_eq!(out.status.code(), Some(0));
        let on_disk = std::fs::read_to_string(golden(stem)).expect("golden file");
        assert_eq!(
            stdout(&out),
            on_disk,
            "{stem}: `mtk gen` and examples/{stem}.mtk diverged — regenerate with `mtk gen --all`"
        );
    }
    // `gen --all --dir` writes the same bytes as the per-stem path.
    let dir = temp_path("gen_all");
    let out = mtk(&["gen", "--all", "--dir", &dir]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    for stem in &stems {
        let written = std::fs::read(format!("{dir}/{stem}.mtk")).expect("written golden");
        let on_disk = std::fs::read(golden(stem)).expect("golden file");
        assert!(written == on_disk, "{stem}: `mtk gen --all` diverged");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let out = mtk(&["gen", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown golden design"));
}

#[test]
fn malformed_numeric_flags_exit_two_with_a_message() {
    let path = golden("adder3");
    let path = path.to_str().unwrap();
    let out = mtk(&["screen", path, "--threads", "garbage"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("error: --threads: `garbage` is not a non-negative integer"),
        "stderr: {}",
        stderr(&out)
    );
    let out = mtk(&["screen", path, "--w-over-l", "wide"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("error: --w-over-l: `wide` is not a finite number"),
        "stderr: {}",
        stderr(&out)
    );
    // A trailing flag with no value is the same usage error.
    let out = mtk(&["screen", path, "--stride"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("error: --stride: missing value"),
        "stderr: {}",
        stderr(&out)
    );
    // The client validates its flags before it connects anywhere.
    let out = mtk(&[
        "client",
        "127.0.0.1:9",
        "screen",
        path,
        "--threads",
        "garbage",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("error: --threads: `garbage` is not a non-negative integer"),
        "stderr: {}",
        stderr(&out)
    );
    let out = mtk(&["client", "127.0.0.1:9", "size", path, "--target", "-inf"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("error: --target: `-inf` is not a finite number"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn a_string_flag_without_a_value_exits_two() {
    let (invtree, adder) = (golden("invtree"), golden("adder3"));
    let (invtree, adder) = (invtree.to_str().unwrap(), adder.to_str().unwrap());
    for (args, flag) in [
        (vec!["size", invtree, "--store"], "--store"),
        (vec!["export", adder, "--out", "--cmos"], "--out"),
    ] {
        let out = mtk(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let message = format!("error: {flag}: missing value");
        assert!(
            stderr(&out).contains(&message),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    // A flag is never taken for a path, so no file named after it appears.
    let dir = temp_path("dangling_trace");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_mtk"))
        .args(["size", invtree, "--trace-json", "--trace-deterministic"])
        .current_dir(&dir)
        .output()
        .expect("spawn mtk");
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("error: --trace-json: missing value"));
    let left = std::fs::read_dir(&dir).expect("temp dir").count();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(left, 0, "a dangling --trace-json wrote a file");
}

#[test]
fn job_commands_exit_two_on_an_unknown_flag_and_name_it() {
    let adder = golden("adder3");
    let adder = adder.to_str().unwrap();
    let (bin, speed, check) = (
        env!("CARGO_BIN_EXE_mtk"),
        env!("CARGO_BIN_EXE_speed_comparison"),
        env!("CARGO_BIN_EXE_trace_check"),
    );
    for (exe, args, flag) in [
        (
            bin,
            vec!["screen", adder, "--stride", "512", "--thread", "2"],
            "--thread",
        ),
        (
            bin,
            vec!["size", adder, "--trace-determinstic"],
            "--trace-determinstic",
        ),
        (bin, vec!["cluster", adder, "--cluster", "2"], "--cluster"),
        // A cluster job exports no waveform.
        (bin, vec!["cluster", adder, "--raw", "r"], "--raw"),
        (bin, vec!["hybrid", adder, "--topk", "2"], "--topk"),
        // The store and the cluster smoke are not screen flags.
        (bin, vec!["screen", adder, "--store", "s"], "--store"),
        // Every other command, each with a flag another command declares.
        (bin, vec!["lint", adder, "--threads", "2"], "--threads"),
        (bin, vec!["sta", adder, "--trace-json", "t"], "--trace-json"),
        (bin, vec!["mc", adder, "--smoke", "--raw", "r"], "--raw"),
        (bin, vec!["export", adder, "--store", "s"], "--store"),
        (bin, vec!["import", "deck.ckt", "--vcd", "v"], "--vcd"),
        (bin, vec!["gen", "--list", "--full"], "--full"),
        (bin, vec!["repro", "--list", "--dir", "d"], "--dir"),
        // An address that cannot bind: a server that skipped the flag
        // check would exit on it instead of serving forever.
        (
            bin,
            vec!["serve", "--addr", "no-such-host", "--top"],
            "--top",
        ),
        (
            bin,
            vec!["client", "127.0.0.1:9", "status", "--store"],
            "--store",
        ),
        // Job flags where nothing reads them: mc runs no sizing search.
        (
            bin,
            vec![
                "mc",
                adder,
                "--smoke",
                "--top-k",
                "3",
                "--clusters",
                "2",
                "--lo",
                "5",
            ],
            "--top-k",
        ),
        (speed, vec!["--samples", "1", "--no-spice"], "--no-spice"),
        (check, vec!["--bogus"], "--bogus"),
    ] {
        let out = Command::new(exe).args(&args).output().expect("spawn");
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?} stderr: {err}");
        assert!(
            err.contains(&format!("unknown flag {flag}")),
            "{args:?}: {err}"
        );
        assert!(stdout(&out).is_empty(), "{args:?} ran: {}", stdout(&out));
    }
    // Each job kind accepts every flag it reads at once: with a bad
    // sizing bracket or sleep size each exits 2 on that, not on a flag,
    // before it writes anything.
    let file = |name: &str| temp_path(&format!("all_flags.{name}"));
    let (json, raw, vcd, store) = (file("json"), file("raw"), file("vcd"), file("store"));
    let sourcing = ["--stride", "512", "--samples", "16"];
    let sweep = ["--threads", "2", "--max-failures", "4", "--fail-fast"];
    let trace = ["--trace-deterministic", "--trace-json", &json];
    let waves = ["--raw", &raw, "--vcd", &vcd, "--t-stop", "8e-8"];
    let sizing = ["--target", "0.05", "--lo", "50", "--hi", "10"];
    let cluster = ["--clusters", "4", "--store", &store, "--smoke"];
    let store = ["--store", &store];
    let (wl0, bracket) = ("finite and positive", "sizing bracket");
    #[rustfmt::skip]
    let kinds: [(&str, Vec<&[&str]>, &str); 6] = [
        ("screen", vec![&sourcing, &sweep, &trace, &waves, &["--top", "3", "--w-over-l", "0"]],
            wl0),
        ("size", vec![&sourcing, &trace, &waves, &store, &sizing], bracket),
        ("size", vec![&sourcing, &sweep, &trace, &cluster, &sizing], bracket),
        ("cluster", vec![&sourcing, &sweep, &trace, &cluster, &sizing], bracket),
        ("hybrid", vec![&sourcing, &sweep, &trace, &waves, &["--top-k", "2", "--w-over-l", "0"]],
            wl0),
        ("hybrid", vec![&sourcing, &sweep, &trace, &waves, &cluster, &["--top-k", "2"], &sizing],
            bracket),
    ];
    for (cmd, groups, bad) in kinds {
        let mut args = vec![cmd, adder];
        args.extend(groups.concat());
        let out = mtk(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?} stderr: {err}");
        assert!(!err.contains("unknown flag"), "{args:?}: {err}");
        assert!(!err.contains("is not read"), "{args:?}: {err}");
        assert!(err.contains(bad), "{args:?}: {err}");
    }
    for path in [&json, &raw, &vcd, store[1]] {
        assert!(!std::path::Path::new(path).exists(), "{path} written");
    }
}

// The flags each job reads, as DESIGN.md §11's read-set table lists them.
const TRACE: &str = "--trace-json --trace-deterministic";
const WAVES: &str = "--raw --vcd --t-stop";
const SCREEN: &str = "--threads --w-over-l --stride --samples --max-failures --fail-fast --top";
const SIZE: &str = "--target --lo --hi --stride --samples --store";
const CLUSTER: &str = "--clusters --target --lo --hi --stride --samples --threads \
                       --max-failures --fail-fast --store --smoke";
const HYBRID: &str = "--w-over-l --top-k --threads --stride --samples --max-failures --fail-fast";
const CLIENT_CLUSTER: &str = "--clusters --target --lo --hi --stride --samples --threads --smoke";

/// The flags `mtk <args> --help` declares, each with a value of its kind
/// (a string value is a path under `dir`).
fn declared_flags(args: &[&str], dir: &str) -> Vec<(String, Option<String>)> {
    let help = stdout(&mtk(&[args, &["--help"]].concat()));
    let line = help.lines().nth(1).expect("a flags line");
    let mut flags: Vec<(String, Option<String>)> = Vec::new();
    for token in line.trim_start_matches("flags: ").split(' ') {
        match (token, flags.last_mut()) {
            ("N", Some(f)) => f.1 = Some("2".into()),
            ("X", Some(f)) => f.1 = Some("50".into()),
            ("S", Some(f)) => f.1 = Some(format!("{dir}/{}", f.0.trim_start_matches('-'))),
            _ => flags.push((token.to_string(), None)),
        }
    }
    flags
}

/// Each job command, and `mtk client` for each job kind, accepts a flag
/// it declares exactly when the job its flags resolve to reads it. An
/// accepted flag gets as far as loading the design, which is missing; a
/// refused one exits 2 naming the flag and the job before the design,
/// which exists, is loaded, with nothing printed or written. `--t-stop`
/// is given with its partner `--raw`.
#[test]
fn each_resolved_job_accepts_exactly_the_flags_it_reads() {
    let adder = golden("adder3");
    let adder = adder.to_str().unwrap();
    let dir = temp_path("read_sets");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let absent = format!("{dir}/absent.mtk");
    let (client, timeout) = (["client", "127.0.0.1:9"], "--timeout-ms");
    let clusters: &[&str] = &["--clusters", "2"];
    #[rustfmt::skip]
    let rows: Vec<(Vec<&str>, &[&str], String)> = vec![
        (vec!["screen"], &[], format!("{SCREEN} {TRACE} {WAVES}")),
        // On `size` and `hybrid`, `--clusters` resolves the job of the next row.
        (vec!["size"], &[], format!("{SIZE} {TRACE} {WAVES} --clusters")),
        (vec!["size"], clusters, format!("{CLUSTER} {TRACE}")),
        (vec!["cluster"], &[], format!("{CLUSTER} {TRACE}")),
        (vec!["hybrid"], &[], format!("{HYBRID} {TRACE} {WAVES} --clusters")),
        // Both legs, less the `--w-over-l` the clustered total overwrites.
        (vec!["hybrid"], clusters, format!("{CLUSTER} --top-k {TRACE} {WAVES}")),
        // The client sends no policy, store, trace or waveform flag.
        ([&client[..], &["screen"]].concat(), &[],
            format!("--threads --w-over-l --stride --samples --top {timeout}")),
        ([&client[..], &["size"]].concat(), &[],
            format!("--target --lo --hi --stride --samples --clusters {timeout}")),
        ([&client[..], &["size"]].concat(), clusters, format!("{CLIENT_CLUSTER} {timeout}")),
        ([&client[..], &["cluster"]].concat(), &[], format!("{CLIENT_CLUSTER} {timeout}")),
        // Serve runs no cluster leg, so `--clusters` is not read.
        ([&client[..], &["hybrid"]].concat(), &[],
            format!("--w-over-l --top-k --threads --stride --samples {timeout}")),
    ];
    let raw = format!("{dir}/raw");
    for (cmd, prefix, reads) in &rows {
        let reads: Vec<&str> = reads.split_whitespace().collect();
        let declared = declared_flags(&cmd[..cmd.len().min(2)], &dir);
        let names: Vec<&str> = declared.iter().map(|(f, _)| f.as_str()).collect();
        for flag in &reads {
            assert!(names.contains(flag), "{cmd:?} does not declare {flag}");
        }
        for (flag, value) in declared
            .iter()
            .filter(|(f, _)| !prefix.contains(&f.as_str()))
        {
            let mut tail: Vec<&str> = prefix.to_vec();
            tail.push(flag);
            tail.extend(value.as_deref());
            if flag == "--t-stop" {
                tail.extend(["--raw", &raw]);
            }
            let read = reads.contains(&flag.as_str());
            let design = if read { absent.as_str() } else { adder };
            let out = mtk(&[&cmd[..], &[design], &tail[..]].concat());
            let (err, what) = (stderr(&out), format!("{cmd:?} {tail:?}"));
            assert_eq!(out.status.code(), Some(2), "{what} stderr: {err}");
            assert!(stdout(&out).is_empty(), "{what} ran: {}", stdout(&out));
            let want = match read {
                true => format!("error: {absent}: "),
                false => format!("{flag} is not read by a"),
            };
            assert!(err.contains(&want), "{what}: {err}");
            let left = std::fs::read_dir(&dir).expect("temp dir").count();
            assert_eq!(left, 0, "{what} wrote a file");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flag read only under a partner exits 2 without it, naming it, before
/// any work: `--t-stop` stops the `--raw` transient, `sta` sources vectors
/// and sizes a sleep device only for a waveform export, a CMOS export has
/// no sleep device, and a request that is not a job reads no job flag.
#[test]
fn flags_read_only_under_a_partner_exit_two_without_it() {
    let adder = golden("adder3");
    let adder = adder.to_str().unwrap();
    let dir = temp_path("partners");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (vcd, deck) = (format!("{dir}/v.vcd"), format!("{dir}/absent.ckt"));
    let (raw_only, waves) = ("without --raw", "without --raw or --vcd");
    let client = ["client", "127.0.0.1:9"];
    #[rustfmt::skip]
    let rows: [(Vec<&str>, &str, &str); 13] = [
        (vec!["sta", adder, "--t-stop", "8e-8"], "--t-stop", raw_only),
        (vec!["sta", adder, "--vcd", &vcd, "--t-stop", "8e-8"], "--t-stop", raw_only),
        (vec!["screen", adder, "--t-stop", "8e-8"], "--t-stop", raw_only),
        (vec!["size", adder, "--vcd", &vcd, "--t-stop", "8e-8"], "--t-stop", raw_only),
        (vec!["hybrid", adder, "--t-stop", "8e-8"], "--t-stop", raw_only),
        (vec!["import", &deck, "--t-stop", "8e-8"], "--t-stop", raw_only),
        (vec!["sta", adder, "--stride", "2"], "--stride", waves),
        (vec!["sta", adder, "--samples", "2"], "--samples", waves),
        (vec!["sta", adder, "--w-over-l", "8"], "--w-over-l", waves),
        (vec!["export", adder, "--cmos", "--w-over-l", "8"], "--w-over-l", "by a CMOS export"),
        ([&client[..], &["status", "--threads", "4"]].concat(), "--threads",
            "by status requests"),
        ([&client[..], &["shutdown", "--smoke"]].concat(), "--smoke", "by shutdown requests"),
        ([&client[..], &["import", &deck, "--top", "2"]].concat(), "--top", "by import requests"),
    ];
    for (args, flag, partner) in rows {
        let out = mtk(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?} stderr: {err}");
        let want = format!("{flag} is not read {partner}");
        assert!(err.contains(&want), "{args:?}: {err}");
        assert!(stdout(&out).is_empty(), "{args:?} ran: {}", stdout(&out));
        let left = std::fs::read_dir(&dir).expect("temp dir").count();
        assert_eq!(left, 0, "{args:?} wrote a file");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A malformed typed value exits 2 before the job runs: nothing is
/// printed and no waveform file is written.
#[test]
fn a_malformed_typed_value_exits_two_before_any_work() {
    let adder = golden("adder3");
    let dir = temp_path("typed_first");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_mtk"))
        .args(["screen", adder.to_str().unwrap(), "--stride", "512"])
        .args(["--raw", "X", "--t-stop", "abc"])
        .current_dir(&dir)
        .output()
        .expect("spawn mtk");
    let left = std::fs::read_dir(&dir).expect("temp dir").count();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("error: --t-stop: `abc` is not a finite number"),
        "stderr: {}",
        stderr(&out)
    );
    assert!(stdout(&out).is_empty(), "ran: {}", stdout(&out));
    assert_eq!(left, 0, "a rawfile was written");
}

#[test]
fn a_flag_value_is_never_a_positional_and_a_stray_positional_exits_two() {
    // `D` is the value of `--dir`, so `adder3` is the stem to print.
    let out = mtk(&["gen", "--dir", "D", "adder3"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let want = std::fs::read_to_string(golden("adder3")).expect("golden file");
    assert_eq!(stdout(&out), want);
    let (adder, invtree) = (golden("adder3"), golden("invtree"));
    let (adder, invtree) = (adder.to_str().unwrap(), invtree.to_str().unwrap());
    for (exe, args, extra) in [
        (
            env!("CARGO_BIN_EXE_mtk"),
            vec!["size", adder, invtree],
            invtree,
        ),
        (
            env!("CARGO_BIN_EXE_mtk"),
            vec!["lint", adder, "--warn-only", "extra"],
            "extra",
        ),
        (
            env!("CARGO_BIN_EXE_mtk"),
            vec!["client", "127.0.0.1:9", "status", "extra"],
            "extra",
        ),
        (env!("CARGO_BIN_EXE_mtk"), vec!["serve", "extra"], "extra"),
        (
            env!("CARGO_BIN_EXE_speed_comparison"),
            vec!["--samples", "1", "extra"],
            "extra",
        ),
    ] {
        let out = Command::new(exe).args(&args).output().expect("spawn");
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?} stderr: {err}");
        assert!(
            err.contains(&format!("unexpected argument `{extra}`")),
            "{args:?}: {err}"
        );
        assert!(stdout(&out).is_empty(), "{args:?} ran: {}", stdout(&out));
    }
}

/// The usage block of DESIGN.md §11.4 is what `mtk` prints with no
/// arguments, byte for byte, so the two cannot drift apart.
#[test]
fn design_usage_block_is_the_printed_usage() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let design = std::fs::read_to_string(path).expect("DESIGN.md");
    let section = &design[design.find("### 11.4").expect("DESIGN.md §11.4")..];
    let block = section
        .split("```")
        .nth(1)
        .expect("a fenced block in §11.4");
    let out = mtk(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        block.strip_prefix('\n').unwrap_or(block),
        stderr(&out),
        "DESIGN.md §11.4 and `mtk`'s usage text diverged"
    );
}

/// `mtk --help` prints the usage text on stdout and exits 0;
/// `mtk <command> --help` prints that command's usage line and the flags
/// it declares, and runs nothing.
#[test]
fn help_prints_the_declared_usage_and_exits_zero() {
    let out = mtk(&["--help"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out), stderr(&mtk(&[])), "--help is the usage text");
    let adder = golden("adder3");
    for (args, line, declared, undeclared) in [
        (
            vec!["size", "--help"],
            "usage: mtk size <file.mtk> [flags]",
            "--clusters N",
            "--top-k",
        ),
        (
            vec!["mc", adder.to_str().unwrap(), "--help"],
            "usage: mtk mc <file.mtk> [flags]",
            "--sigma-vt X",
            "--top-k",
        ),
        (
            vec!["client", "--help"],
            "usage: mtk client <host:port>",
            "--timeout-ms N",
            "--store",
        ),
        (
            vec!["gen", "--help"],
            "usage: mtk gen [--list | --all [--dir D] | <stem>]",
            "--dir S",
            "--threads",
        ),
    ] {
        let out = mtk(&args);
        let text = stdout(&out);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
        assert!(text.starts_with(line), "{args:?}: {text}");
        let flags = text.lines().nth(1).unwrap_or_default();
        assert!(flags.starts_with("flags: "), "{args:?}: {text}");
        assert!(flags.contains(declared), "{args:?}: {text}");
        assert!(!flags.contains(undeclared), "{args:?}: {text}");
        assert_eq!(text.lines().count(), 2, "{args:?} ran: {text}");
    }
}

#[test]
fn a_bad_sizing_bracket_exits_two_with_a_message() {
    let path = golden("invtree");
    let path = path.to_str().unwrap();
    for args in [
        vec!["size", path, "--lo", "0"],
        vec!["size", path, "--lo", "50", "--hi", "10"],
        vec!["cluster", path, "--hi", "-3"],
        vec!["client", "127.0.0.1:9", "size", path, "--lo", "0"],
    ] {
        let out = mtk(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr(&out).contains("error: sizing bracket needs 0 < lo < hi"),
            "{args:?} stderr: {}",
            stderr(&out)
        );
    }
}

#[test]
fn a_non_positive_sleep_size_or_no_transitions_exits_two_without_a_panic() {
    let (adder, invtree, rand) = (golden("adder3"), golden("invtree"), golden("rand8x40"));
    let (adder, invtree, rand) = (
        adder.to_str().unwrap(),
        invtree.to_str().unwrap(),
        rand.to_str().unwrap(),
    );
    let vcd = std::env::temp_dir().join(format!("mtk_cli_{}_wl0.vcd", std::process::id()));
    let vcd = vcd.to_str().unwrap();
    for (args, message) in [
        (
            vec!["screen", adder, "--w-over-l", "0"],
            "finite and positive",
        ),
        (
            vec!["hybrid", invtree, "--w-over-l", "0"],
            "finite and positive",
        ),
        (
            vec!["export", adder, "--w-over-l", "0"],
            "finite and positive",
        ),
        (
            vec!["sta", adder, "--vcd", vcd, "--w-over-l", "-1"],
            "finite and positive",
        ),
        (
            vec!["size", rand, "--samples", "0"],
            "at least one transition",
        ),
        (
            vec!["cluster", rand, "--samples", "0"],
            "at least one transition",
        ),
    ] {
        let out = mtk(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?} stderr: {err}");
        assert!(!err.contains("panicked"), "{args:?} stderr: {err}");
        assert!(err.contains(message), "{args:?} stderr: {err}");
    }
    assert!(!std::path::Path::new(vcd).exists(), "nothing exported");
}

#[test]
fn size_trace_has_a_span_around_the_run() {
    let path = golden("invtree");
    let json = std::env::temp_dir().join(format!("mtk_cli_{}_size_span.json", std::process::id()));
    let json = json.to_str().unwrap().to_string();
    let out = mtk(&["size", path.to_str().unwrap(), "--trace-json", &json]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = std::fs::read_to_string(&json).expect("trace artifact");
    let _ = std::fs::remove_file(&json);
    let trace = mtk_trace::json::parse(&text).expect("trace parses");
    let spans = trace
        .get("timing")
        .and_then(|t| t.get("spans"))
        .and_then(mtk_trace::json::JsonValue::as_array)
        .expect("timing.spans");
    let size = spans
        .iter()
        .find(|s| s.get("name").and_then(mtk_trace::json::JsonValue::as_str) == Some("size"))
        .unwrap_or_else(|| panic!("no top-level `size` span: {text}"));
    let wall = size
        .get("wall_s")
        .and_then(mtk_trace::json::JsonValue::as_f64)
        .expect("wall_s");
    assert!(wall > 0.0, "the size span must time the run: {text}");
}

#[test]
fn repro_list_prints_every_experiment_id() {
    let out = mtk(&["repro", "--list"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let ids: Vec<String> = stdout(&out)
        .lines()
        .filter_map(|l| l.split_whitespace().next().map(String::from))
        .collect();
    let want: Vec<&str> = mtk_bench::repro::EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(ids, want);
}

#[test]
fn repro_unknown_id_exits_two() {
    let out = mtk(&["repro", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("unknown experiment `nope`"),
        "stderr: {}",
        stderr(&out)
    );
}

/// A per-process temp path for a test artifact named `name`.
fn temp_path(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("mtk_cli_{}_{name}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// A per-process temp path for a JSON test artifact.
fn temp_json(tag: &str) -> String {
    temp_path(&format!("{tag}.json"))
}

#[test]
fn hybrid_smoke_trace_validates_against_the_schema() {
    let path = golden("adder3");
    let json = temp_json("hybrid_smoke");
    let out = mtk(&[
        "hybrid",
        path.to_str().unwrap(),
        "--stride",
        "64",
        "--top-k",
        "2",
        "--threads",
        "2",
        "--trace-json",
        &json,
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert_trace_checks(&json);
    let _ = std::fs::remove_file(&json);
}

/// `trace_check` accepts the trace at `path`.
fn assert_trace_checks(path: &str) {
    let check = Command::new(env!("CARGO_BIN_EXE_trace_check"))
        .arg(path)
        .output()
        .expect("spawn trace_check");
    assert_eq!(
        check.status.code(),
        Some(0),
        "trace_check {path}: {}{}",
        stdout(&check),
        stderr(&check)
    );
}

/// A cold Monte Carlo smoke writes every trial through to the store; a
/// warm rerun at another thread count replays all of them without
/// touching the simulator. Both deterministic traces validate.
#[test]
fn mc_smoke_traces_validate_and_a_warm_rerun_simulates_nothing() {
    let path = golden("adder3");
    let (store, json) = (temp_path("mc.store"), temp_json("mc"));
    let run = |threads: &str| {
        let out = mtk(&[
            "mc",
            path.to_str().unwrap(),
            "--smoke",
            "--sigma-vt",
            "0.03",
            "--sigma-kp",
            "0.05",
            "--sigma-w",
            "0.04",
            "--target",
            "0.25",
            "--threads",
            threads,
            "--store",
            &store,
            "--trace-deterministic",
            "--trace-json",
            &json,
        ]);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        assert_trace_checks(&json);
        stdout(&out)
    };
    run("2");
    let warm = run("8");
    for f in [&store, &format!("{store}.lock"), &json] {
        let _ = std::fs::remove_file(f);
    }
    assert!(
        warm.contains(", 0 simulated"),
        "warm mc rerun did simulator work: {warm}"
    );
}

/// The early-exit bisection's deterministic trace (the legs it ran, in
/// the order it ran them) is byte-identical run to run. A plain size job
/// runs on one thread and reads no `--threads`; thread invariance where
/// threads are read is `cluster_smoke_is_thread_invariant_…`.
#[test]
fn size_deterministic_trace_is_byte_identical_run_to_run() {
    for stem in ["mul16", "adder3"] {
        let path = golden(stem);
        let mut traces = Vec::new();
        for run in ["1", "2"] {
            let json = temp_json(&format!("size_{stem}_run{run}"));
            let out = mtk(&[
                "size",
                path.to_str().unwrap(),
                "--samples",
                "16",
                "--trace-deterministic",
                "--trace-json",
                &json,
            ]);
            assert_eq!(out.status.code(), Some(0), "{stem}: {}", stderr(&out));
            assert_trace_checks(&json);
            traces.push(std::fs::read(&json).expect("trace artifact"));
            let _ = std::fs::remove_file(&json);
        }
        assert!(
            traces[0] == traces[1],
            "{stem}: size trace differs run to run"
        );
    }
}

/// A warm rerun reopens a store that an earlier process appended to and
/// replays every leg the cold run used.
#[test]
fn size_warm_store_rerun_simulates_nothing() {
    let path = golden("mul16");
    let store = temp_path("size.store");
    let run = || {
        let out = mtk(&[
            "size",
            path.to_str().unwrap(),
            "--samples",
            "16",
            "--store",
            &store,
        ]);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        stdout(&out)
    };
    run();
    let warm = run();
    for f in [&store, &format!("{store}.lock")] {
        let _ = std::fs::remove_file(f);
    }
    assert!(
        warm.contains(", 0 simulated"),
        "warm size rerun did simulator work: {warm}"
    );
}

/// The cluster co-optimizer on the 16x16 multiplier (`--smoke`, 4
/// clusters): its deterministic trace is byte-identical at 1, 2 and 8
/// threads and passes `trace_check`; the solution it returns uses no more
/// total sleep width than the single shared device (the never-worse rule,
/// DESIGN.md §15.3); and a warm `--store` rerun at another thread count
/// replays every evaluation.
#[test]
fn cluster_smoke_is_thread_invariant_never_worse_and_replays_warm() {
    let path = golden("mul16");
    let path = path.to_str().unwrap();
    let cluster = |threads: &str, extra: &[&str]| {
        let mut args = vec![
            "cluster",
            path,
            "--smoke",
            "--clusters",
            "4",
            "--threads",
            threads,
        ];
        args.extend(extra);
        let out = mtk(&args);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        stdout(&out)
    };
    let mut traces = Vec::new();
    for threads in ["1", "2", "8"] {
        let json = temp_json(&format!("cluster_t{threads}"));
        cluster(threads, &["--trace-deterministic", "--trace-json", &json]);
        if threads == "1" {
            assert_trace_checks(&json);
        }
        traces.push(std::fs::read(&json).expect("trace artifact"));
        let _ = std::fs::remove_file(&json);
    }
    for (threads, trace) in ["2", "8"].iter().zip(&traces[1..]) {
        assert!(
            *trace == traces[0],
            "cluster trace differs at threads={threads}"
        );
    }

    let store = temp_path("cluster.store");
    let cold = cluster("2", &["--store", &store]);
    let summary = cold
        .lines()
        .find(|l| l.contains("single-device W/L"))
        .unwrap_or_else(|| panic!("no never-worse summary: {cold}"));
    let number_after = |label: &str| -> Option<f64> {
        let rest = &summary[summary.find(label)? + label.len()..];
        let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.'));
        rest[..end.unwrap_or(rest.len())].parse().ok()
    };
    let total = number_after("clustered total W/L = ").expect("clustered total");
    let single = number_after("single-device W/L = ")
        .unwrap_or_else(|| panic!("single-device solution infeasible: {summary}"));
    let returned = if summary.contains("returned the single-device solution") {
        single
    } else {
        total
    };
    assert!(
        returned <= single + 1e-9,
        "never-worse rule violated: returned {returned} vs single {single}"
    );
    let warm = cluster("8", &["--store", &store]);
    for f in [&store, &format!("{store}.lock")] {
        let _ = std::fs::remove_file(f);
    }
    assert!(
        warm.contains(", 0 simulated"),
        "warm cluster rerun did simulator work: {warm}"
    );
}

/// The speed gate loads its baseline before it times anything, so a
/// missing one is a usage error at once, not a panic after the sweep.
#[test]
fn speed_comparison_rejects_a_missing_baseline_before_timing() {
    let out = Command::new(env!("CARGO_BIN_EXE_speed_comparison"))
        .args(["--check-against", "/nonexistent", "--samples", "1"])
        .args(["--warmup", "0"])
        .output()
        .expect("spawn speed_comparison");
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(err.contains("error: read baseline /nonexistent"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(
        stdout(&out).is_empty(),
        "timed before validating: {}",
        stdout(&out)
    );
}

/// Each verify worker owns its SPICE solvers, and with them the LU
/// workspaces' caches of recorded eliminations: which worker verifies
/// which candidate, and so which plans are cached, must change no byte.
#[test]
fn hybrid_deterministic_trace_is_byte_identical_across_threads() {
    for (stem, stride) in [("adder3", "64"), ("alu4", "4096")] {
        let path = golden(stem);
        let mut traces = Vec::new();
        for threads in ["1", "2"] {
            let json = temp_json(&format!("hybrid_{stem}_t{threads}"));
            let out = mtk(&[
                "hybrid",
                path.to_str().unwrap(),
                "--stride",
                stride,
                "--top-k",
                "2",
                "--threads",
                threads,
                "--trace-deterministic",
                "--trace-json",
                &json,
            ]);
            assert_eq!(out.status.code(), Some(0), "{stem}: {}", stderr(&out));
            traces.push(std::fs::read(&json).expect("trace artifact"));
            let _ = std::fs::remove_file(&json);
        }
        assert!(
            traces[0] == traces[1],
            "{stem}: hybrid trace differs at threads=2"
        );
    }
}

/// Exporting a golden design as a hint-carrying SPICE deck and
/// importing it again (structural gate recognition) gives back the
/// committed canonical `.mtk`, byte for byte.
#[test]
fn deck_export_import_round_trip_is_byte_identical() {
    let path = golden("adder3");
    let (deck, back) = (temp_path("adder3.ckt"), temp_path("adder3_back.mtk"));
    let out = mtk(&[
        "export",
        path.to_str().unwrap(),
        "--w-over-l",
        "8",
        "--out",
        &deck,
    ]);
    assert_eq!(out.status.code(), Some(0), "export: {}", stderr(&out));
    let out = mtk(&["import", &deck, "--out", &back]);
    assert_eq!(out.status.code(), Some(0), "import: {}", stderr(&out));
    let want = std::fs::read(&path).expect("golden");
    assert!(
        std::fs::read(&back).expect("imported design") == want,
        "deck export/import round trip is not byte-identical"
    );
    let _ = std::fs::remove_file(&deck);
    let _ = std::fs::remove_file(&back);
}

/// `invtree` exported as a deck with its `* mtk: ` hint lines removed,
/// as a foreign tool would write it; returns the deck's path.
fn foreign_deck(tag: &str) -> String {
    let (hinted, deck) = (
        temp_path(&format!("{tag}.ckt")),
        temp_path(&format!("{tag}_foreign.ckt")),
    );
    let out = mtk(&[
        "export",
        golden("invtree").to_str().unwrap(),
        "--out",
        &hinted,
    ]);
    assert_eq!(out.status.code(), Some(0), "export: {}", stderr(&out));
    let text = std::fs::read_to_string(&hinted).expect("exported deck");
    let foreign: String = text
        .lines()
        .filter(|l| !l.starts_with("* mtk: "))
        .flat_map(|l| [l, "\n"])
        .collect();
    std::fs::write(&deck, foreign).expect("write deck");
    let _ = std::fs::remove_file(&hinted);
    deck
}

/// Without `--out`, stdout carries the imported `.mtk` alone: the same
/// bytes `--out` writes, which lint clean (the telemetry footer goes to
/// stderr, as does `--trace-json`'s report line).
#[test]
fn import_to_stdout_prints_only_the_mtk() {
    let deck = foreign_deck("piped");
    let (file, json, piped) = (
        temp_path("piped_out.mtk"),
        temp_path("piped_trace.json"),
        temp_path("piped.mtk"),
    );
    let out = mtk(&["import", &deck, "--out", &file]);
    assert_eq!(out.status.code(), Some(0), "import --out: {}", stderr(&out));
    let out = mtk(&["import", &deck, "--trace-json", &json]);
    assert_eq!(out.status.code(), Some(0), "import: {}", stderr(&out));
    let want = std::fs::read(&file).expect("imported design");
    assert!(
        out.stdout == want,
        "stdout is not the --out bytes:\n{}",
        stdout(&out)
    );
    assert!(
        stderr(&out).contains("== telemetry (mtk_import) =="),
        "{}",
        stderr(&out)
    );
    assert!(
        std::path::Path::new(&json).exists(),
        "--trace-json wrote nothing"
    );
    std::fs::write(&piped, &out.stdout).expect("write piped design");
    let out = mtk(&["lint", &piped]);
    assert_eq!(out.status.code(), Some(0), "lint: {}", stderr(&out));
    for f in [&deck, &file, &json, &piped] {
        let _ = std::fs::remove_file(f);
    }
}

/// `--raw` runs a transient on a deck that recognition turns into a
/// design, as it does on a SPICE-only one, and writes the rawfile
/// whether the `.mtk` goes to stdout or to `--out`.
#[test]
fn import_raw_writes_a_rawfile_for_a_recognized_deck() {
    let deck = foreign_deck("raw");
    let (piped_raw, file, file_raw) = (
        temp_path("import_piped.raw"),
        temp_path("import_raw.mtk"),
        temp_path("import_file.raw"),
    );
    let out = mtk(&["import", &deck, "--raw", &piped_raw, "--t-stop", "5e-9"]);
    assert_eq!(out.status.code(), Some(0), "import: {}", stderr(&out));
    assert!(stdout(&out).ends_with("end\n"), "stdout: {}", stdout(&out));
    assert!(
        stderr(&out).contains(&format!("wrote {piped_raw}:")),
        "{}",
        stderr(&out)
    );
    let out = mtk(&[
        "import", &deck, "--out", &file, "--raw", &file_raw, "--t-stop", "5e-9",
    ]);
    assert_eq!(out.status.code(), Some(0), "import --out: {}", stderr(&out));
    assert!(
        stdout(&out).contains(&format!("wrote {file_raw}:")),
        "{}",
        stdout(&out)
    );
    let raw = std::fs::read(&piped_raw).expect("rawfile");
    assert!(!raw.is_empty());
    assert!(
        raw == std::fs::read(&file_raw).expect("rawfile"),
        "rawfiles differ"
    );
    for f in [&deck, &piped_raw, &file, &file_raw] {
        let _ = std::fs::remove_file(f);
    }
}

/// A hand-written deck with a `.subckt` and an MTCMOS footer flattens,
/// is recognized, and runs through the sizing flow end to end.
#[test]
fn a_subckt_deck_imports_and_sizes() {
    const DECK: &str = "\
* two-stage buffer from a subckt, mtcmos footer
.model mn nmos level=1 vto=0.55 kp=110u gamma=0.4 phi=0.8 lambda=0.04
.model mp pmos level=1 vto=-0.55 kp=55u gamma=0.4 phi=0.8 lambda=0.04
.model msleep nmos level=1 vto=0.8 kp=110u gamma=0.4 phi=0.8 lambda=0.04
.subckt inv in out vss
m_n out in vss vss mn w=1u l=1u
m_p out in vdd vdd mp w=2u l=1u
.ends
.global vdd
vdd vdd 0 dc 3.3
vsleep sleep 0 dc 3.3
msl vgnd sleep 0 0 msleep w=12u l=1u
vin_a a 0 dc 0
xu1 a m vgnd inv
xu2 m y vgnd inv
";
    let (deck, design) = (temp_path("subckt.ckt"), temp_path("subckt.mtk"));
    std::fs::write(&deck, DECK).expect("write deck");
    let out = mtk(&["import", &deck, "--out", &design]);
    assert_eq!(out.status.code(), Some(0), "import: {}", stderr(&out));
    let out = mtk(&["size", &design, "--target", "0.05"]);
    assert_eq!(out.status.code(), Some(0), "size: {}", stderr(&out));
    let _ = std::fs::remove_file(&deck);
    let _ = std::fs::remove_file(&design);
}

/// A deterministic screen with waveform exports writes the same
/// rawfile, VCD and trace at 1 and 8 threads; the rawfile holds points
/// (the trace's `wave_raw_points` is not 0) and the trace validates.
#[test]
fn screen_waveform_exports_are_byte_identical_across_threads() {
    let path = golden("adder3");
    let mut runs = Vec::new();
    for threads in ["1", "8"] {
        let files = ["raw", "vcd", "json"].map(|ext| temp_path(&format!("s{threads}.{ext}")));
        let out = mtk(&[
            "screen",
            path.to_str().unwrap(),
            "--stride",
            "16",
            "--threads",
            threads,
            "--raw",
            &files[0],
            "--vcd",
            &files[1],
            "--trace-deterministic",
            "--trace-json",
            &files[2],
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "threads {threads}: {}",
            stderr(&out)
        );
        runs.push(files);
    }
    for (i, what) in ["rawfile", "VCD", "screen trace"].iter().enumerate() {
        let one = std::fs::read(&runs[0][i]).expect("1-thread artifact");
        let eight = std::fs::read(&runs[1][i]).expect("8-thread artifact");
        assert!(one == eight, "{what} differs across threads");
    }
    let trace = std::fs::read_to_string(&runs[0][2]).expect("trace");
    assert!(
        !trace.contains("\"wave_raw_points\": 0"),
        "screen --raw recorded no points"
    );
    assert_trace_checks(&runs[0][2]);
    for file in runs.iter().flatten() {
        let _ = std::fs::remove_file(file);
    }
}

/// A running `mtk serve` on an ephemeral loopback port, its stdout
/// logged to a file. Killed on drop, so a failing test leaves no server
/// behind.
struct Serve {
    child: Child,
    log: String,
    addr: String,
}

impl Serve {
    /// Starts `mtk serve --addr 127.0.0.1:0 <args>` and waits up to 10 s
    /// for it to print its address.
    fn start(tag: &str, args: &[&str]) -> Serve {
        let log = temp_path(&format!("serve_{tag}.log"));
        let child = Command::new(env!("CARGO_BIN_EXE_mtk"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(args)
            .stdout(std::fs::File::create(&log).expect("create log"))
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn mtk serve");
        let mut serve = Serve {
            child,
            log,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let text = std::fs::read_to_string(&serve.log).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .find_map(|l| l.strip_prefix("mtk serve: listening on "))
            {
                serve.addr = addr.to_string();
                return serve;
            }
            assert!(
                Instant::now() < deadline,
                "mtk serve never reported its address"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// `mtk client <addr> <args>`.
    fn client(&self, args: &[&str]) -> Output {
        mtk(&[&["client", &self.addr], args].concat())
    }

    /// The server must exit 0 within 30 s of being asked to drain, and
    /// report the drain. The accept loop blocks, so a drain that fails
    /// to wake it fails here instead of hanging the suite.
    fn drained(mut self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("wait") {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "mtk serve did not exit within 30 s of the drain request"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        assert!(status.success(), "drain exit: {status}");
        let log = std::fs::read_to_string(&self.log).expect("log");
        assert!(log.contains("drained"), "no graceful drain reported: {log}");
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.log);
    }
}

/// Sends SIGTERM to `pid` through the libc `kill(2)` symbol (std links
/// libc; no crate dependency).
fn sigterm(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    // SAFETY: `kill` only reads its two integer arguments.
    let rc = unsafe { kill(pid as i32, SIGTERM) };
    assert_eq!(rc, 0, "kill -TERM {pid}");
}

#[test]
fn serve_replays_a_repeated_job_from_its_store_and_drains_on_sigterm() {
    let store = temp_path("serve.store");
    let serve = Serve::start("store", &["--store", &store]);
    let invtree = golden("invtree");
    let job = ["hybrid", invtree.to_str().unwrap(), "--top-k", "2"];
    let (first, second) = (serve.client(&job), serve.client(&job));
    assert_eq!(first.status.code(), Some(0), "stderr: {}", stderr(&first));
    let (first, second) = (stdout(&first), stdout(&second));
    assert!(
        first.contains("\"cached\":false"),
        "not computed fresh: {first}"
    );
    assert!(
        second.contains("\"cached\":true"),
        "missed the store: {second}"
    );
    assert_eq!(
        second.replacen("\"cached\":true", "\"cached\":false", 1),
        first,
        "the store replay is byte-identical to the computed response"
    );
    let status = stdout(&serve.client(&["status"]));
    assert!(
        status.contains("\"store_hits\":1"),
        "the trace counters show the store hit: {status}"
    );
    // The client builds the CLI's job: `size --clusters N` is a cluster job.
    let cluster = stdout(&serve.client(&["size", invtree.to_str().unwrap(), "--clusters", "2"]));
    assert!(
        cluster.contains("\"clustered_width\""),
        "size --clusters ran the cluster job: {cluster}"
    );
    sigterm(serve.child.id());
    serve.drained();
    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_file(format!("{store}.lock"));
}

#[test]
fn serve_stops_on_a_shutdown_request() {
    let serve = Serve::start("shutdown", &[]);
    let bye = stdout(&serve.client(&["shutdown"]));
    assert!(bye.contains("\"draining\":true"), "not acknowledged: {bye}");
    serve.drained();
}
