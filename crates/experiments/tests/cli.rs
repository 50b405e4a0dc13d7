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
