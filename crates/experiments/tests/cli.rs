//! Command-line contract of the `experiments` binary: a mistyped flag is
//! an error, never a silent no-op run.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments")
}

#[test]
fn unknown_flag_exits_2_and_lists_the_valid_flags() {
    for args in [&["--tabel1"][..], &["--table1", "--jbos", "2"]] {
        let out = experiments(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
        for valid in [
            "--table1",
            "--all",
            "--jobs",
            "--validate",
            "--profile-trace",
        ] {
            assert!(
                stderr.contains(valid),
                "{args:?}: {valid} not listed in {stderr}"
            );
        }
        // Nothing ran: not even the banner was printed.
        assert!(
            out.stdout.is_empty(),
            "{args:?}: ran despite an unknown flag"
        );
    }
}

#[test]
fn non_integer_jobs_is_a_usage_error() {
    let out = experiments(&["--jobs", "abc", "--lemma1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--jobs needs an integer"), "{stderr}");
}

#[test]
fn known_flags_pass_the_check() {
    // `--validate` on a missing file fails on the file, not on the flag.
    let out = experiments(&["--validate", "no-such-artifact.json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("unknown flag"), "{stderr}");
}

/// Every section selector of the registry, in table order.
const SECTIONS: [&str; 18] = [
    "--lemma1",
    "--thm1",
    "--thm2",
    "--fig8",
    "--thm4",
    "--failures",
    "--thm3",
    "--valency",
    "--table1",
    "--poly-vs-exp",
    "--obs",
    "--fuzz",
    "--profile",
    "--native",
    "--service",
    "--crash",
    "--explore",
    "--perf",
];

#[test]
fn unknown_flag_message_lists_every_section_and_option() {
    let out = experiments(&["--no-such-section"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    for flag in SECTIONS.iter().chain(&["--jobs", "--smoke", "--baseline"]) {
        assert!(
            stderr.split_whitespace().any(|w| w == *flag),
            "{flag} not listed in {stderr}"
        );
    }
}

#[test]
fn retired_options_are_unknown_flags() {
    for flag in [
        "--perf-baseline",
        "--service-baseline",
        "--explore-baseline",
        "--fuzz-dir",
    ] {
        let out = experiments(&["--service", "--smoke", flag, "x"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag(s): {flag}")),
            "{stderr}"
        );
    }
}

/// A fresh, empty directory under the system temp dir, unique to `name`
/// and this test process.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("experiments-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `--service --smoke --baseline <baseline>` inside `cwd`, so the
/// fresh artifact lands there rather than in the source tree.
fn service_gate_exit(cwd: &std::path::Path, baseline: &std::path::Path) -> Option<i32> {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--service", "--smoke", "--jobs", "2", "--baseline"])
        .arg(baseline)
        .current_dir(cwd)
        .output()
        .expect("spawn experiments");
    out.status.code()
}

/// `line` with every `"steps_per_request":X` value replaced by `X / 2`.
fn halve_steps_per_request(line: &str) -> String {
    const KEY: &str = "\"steps_per_request\":";
    let Some(at) = line.find(KEY) else {
        return line.to_string();
    };
    let start = at + KEY.len();
    let end = start
        + line[start..]
            .find([',', '}'])
            .expect("value is followed by , or }");
    let value: f64 = line[start..end]
        .parse()
        .expect("steps_per_request is a number");
    format!("{}{}{}", &line[..start], value / 2.0, &line[end..])
}

#[test]
fn baseline_dir_gates_service_cost() {
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    let text = std::fs::read_to_string(committed).expect("committed BENCH_service.json");
    let cwd = scratch_dir("service-run");

    let same = scratch_dir("service-same");
    std::fs::write(same.join("BENCH_service.json"), &text).unwrap();
    assert_eq!(
        service_gate_exit(&cwd, &same),
        Some(0),
        "committed baseline must pass"
    );

    let cheaper = scratch_dir("service-halved");
    let halved: String = text
        .lines()
        .map(|l| halve_steps_per_request(l) + "\n")
        .collect();
    assert_ne!(halved, text, "no steps_per_request to halve");
    std::fs::write(cheaper.join("BENCH_service.json"), halved).unwrap();
    assert_eq!(
        service_gate_exit(&cwd, &cheaper),
        Some(1),
        "a 2× cost must fail the gate"
    );

    let empty = scratch_dir("service-missing");
    assert_eq!(
        service_gate_exit(&cwd, &empty),
        Some(1),
        "a missing baseline must fail the gate"
    );

    for dir in [cwd, same, cheaper, empty] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
