//! One job model, three front ends: `mtk <cmd>` on the CLI and `mtk
//! client <addr> <cmd>` against an in-process `mtk serve` must run the
//! same job. The CLI's `--trace-deterministic --trace-json` file equals
//! the `trace` of the serve response for the same flags, and the client
//! routes `size --clusters N` to the cluster co-optimizer like the CLI.

use mtk_bench::serve::{request, ServeConfig, Server};
use mtk_trace::json::{parse, JsonValue};
use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Duration;

fn mtk(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mtk"))
        .args(args)
        .output()
        .expect("spawn mtk")
}

fn golden(stem: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples")
        .join(format!("{stem}.mtk"))
        .to_string_lossy()
        .into_owned()
}

/// Runs `mtk client <addr> <cmd> <file> <flags>` and parses its response
/// line.
fn client(addr: &str, cmd: &str, file: &str, flags: &[&str]) -> JsonValue {
    let mut args = vec!["client", addr, cmd, file];
    args.extend_from_slice(flags);
    let out = mtk(&args);
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(
        out.status.code(),
        Some(0),
        "client {cmd} {flags:?}: {text} {}",
        String::from_utf8_lossy(&out.stderr)
    );
    parse(text.trim()).expect("response parses")
}

#[test]
fn cli_trace_equals_the_serve_trace_for_the_same_flags() {
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || server.run().expect("run"));
    let (invtree, adder3) = (golden("invtree"), golden("adder3"));
    let cases: [(&str, &str, &[&str]); 6] = [
        ("screen", &invtree, &[]),
        ("size", &invtree, &[]),
        ("cluster", &invtree, &[]),
        ("hybrid", &invtree, &[]),
        ("screen", &adder3, &["--stride", "64"]),
        ("size", &adder3, &["--stride", "64"]),
    ];
    for (cmd, file, flags) in cases {
        let json = std::env::temp_dir().join(format!(
            "mtk_parity_{}_{cmd}_{}.json",
            std::process::id(),
            flags.len()
        ));
        let json = json.to_string_lossy().into_owned();
        let mut args = vec![cmd, file];
        args.extend_from_slice(flags);
        args.extend_from_slice(&["--trace-deterministic", "--trace-json", &json]);
        let out = mtk(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{cmd}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let cli = parse(&std::fs::read_to_string(&json).expect("trace file")).expect("parses");
        let _ = std::fs::remove_file(&json);
        let served = client(&addr, cmd, file, flags);
        assert_eq!(
            served.get("trace"),
            Some(&cli),
            "{cmd} {file} {flags:?}: CLI and serve traces diverged"
        );
    }
    request(&addr, r#"{"cmd":"shutdown"}"#, Duration::from_secs(60)).expect("shutdown");
    handle.join().expect("drained");
}

#[test]
fn client_size_with_clusters_runs_the_cluster_co_optimizer() {
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || server.run().expect("run"));
    let invtree = golden("invtree");
    let sized = client(&addr, "size", &invtree, &["--clusters", "2"]);
    let result = sized.get("result").expect("result");
    assert!(
        result.get("clustered_width").is_some(),
        "size --clusters must route to the cluster job: {}",
        sized.to_compact()
    );
    // The same job as `cluster --clusters 2`.
    let clustered = client(&addr, "cluster", &invtree, &["--clusters", "2"]);
    assert_eq!(clustered.get("result"), Some(result));
    request(&addr, r#"{"cmd":"shutdown"}"#, Duration::from_secs(60)).expect("shutdown");
    handle.join().expect("drained");
}
