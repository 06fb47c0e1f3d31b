//! The exit contract of the campaign binaries, run over the binaries
//! themselves. `difftest_campaign` and `sched_campaign` share the `--check`
//! preflight of `bench::campaign`: checking against a baseline generated
//! under different flags is a usage error (exit 2) that names the
//! regeneration command, never a comparison of incomparable reports; a
//! matching rerun exits 0 and a drifted report exits 1. Every campaign
//! rejects a malformed invocation with exit 2 and its usage line.

use std::path::PathBuf;
use std::process::Output;

/// The seed-block campaigns that share the `--check` preflight.
const SEED_BLOCK_BINS: [(&str, &str); 2] = [
    ("difftest_campaign", env!("CARGO_BIN_EXE_difftest_campaign")),
    ("sched_campaign", env!("CARGO_BIN_EXE_sched_campaign")),
];

fn campaign(exe: &str, args: &[&str]) -> Output {
    std::process::Command::new(exe)
        .args(args)
        .output()
        .expect("spawn campaign")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Generate a tiny quick-mode baseline of `name` under `tag` and return
/// its path.
fn make_baseline(name: &str, exe: &str, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "check-contract-{name}-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dir");
    let out = dir.join("base.json");
    let gen = campaign(
        exe,
        &[
            "--quick",
            "--seeds",
            "4",
            "--jobs",
            "auto",
            "--out",
            out.to_str().expect("path"),
        ],
    );
    assert!(
        gen.status.success(),
        "{name}: baseline generation failed: {}",
        stderr(&gen)
    );
    out
}

fn remove(base: &PathBuf) {
    let _ = std::fs::remove_dir_all(base.parent().expect("dir"));
}

#[test]
fn check_passes_against_a_fresh_baseline() {
    for (name, exe) in SEED_BLOCK_BINS {
        let base = make_baseline(name, exe, "pass");
        // A different --jobs must not matter: the report is jobs-invariant.
        let path = base.to_str().expect("path");
        let out = campaign(
            exe,
            &["--quick", "--seeds", "4", "--jobs", "1", "--check", path],
        );
        assert_eq!(out.status.code(), Some(0), "{name}: {}", stderr(&out));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("check: report matches"), "{name}: {stdout}");
        remove(&base);
    }
}

#[test]
fn seed_count_mismatch_is_a_usage_error_naming_the_regen_command() {
    for (name, exe) in SEED_BLOCK_BINS {
        let base = make_baseline(name, exe, "seeds");
        let out = campaign(
            exe,
            &[
                "--quick",
                "--seeds",
                "7",
                "--check",
                base.to_str().expect("path"),
            ],
        );
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name}: a seed-count mismatch must be exit 2"
        );
        let err = stderr(&out);
        assert!(err.contains("seed count"), "{name}: {err}");
        // The message must hand the user the exact regeneration command.
        let regen = format!("{name} -- --quick --seeds 4 --jobs auto --out");
        assert!(err.contains(&regen), "{name}: {err}");
        remove(&base);
    }
}

#[test]
fn quick_flag_mismatch_is_a_usage_error() {
    for (name, exe) in SEED_BLOCK_BINS {
        let base = make_baseline(name, exe, "quick");
        // Same seed count, but the baseline was quick and this run is not.
        let out = campaign(
            exe,
            &["--seeds", "4", "--check", base.to_str().expect("path")],
        );
        assert_eq!(out.status.code(), Some(2), "{name}");
        let err = stderr(&out);
        assert!(
            err.contains("quick") && err.contains("regenerate"),
            "{name}: {err}"
        );
        remove(&base);
    }
}

#[test]
fn drifted_baseline_is_a_check_failure_not_a_usage_error() {
    for (name, exe) in SEED_BLOCK_BINS {
        let base = make_baseline(name, exe, "drift");
        let raw = std::fs::read_to_string(&base).expect("read baseline");
        // Tamper with a result member (not the config header): the
        // preflight passes, the byte comparison catches it.
        assert!(raw.contains("\"agree\": 4"), "{name}: {raw}");
        std::fs::write(&base, raw.replace("\"agree\": 4", "\"agree\": 3")).expect("tamper");
        let out = campaign(
            exe,
            &[
                "--quick",
                "--seeds",
                "4",
                "--check",
                base.to_str().expect("path"),
            ],
        );
        assert_eq!(out.status.code(), Some(1), "{name}");
        assert!(
            stderr(&out).contains("differs from baseline"),
            "{name}: {}",
            stderr(&out)
        );
        remove(&base);
    }
}

#[test]
fn missing_baseline_is_a_usage_error() {
    for (name, exe) in SEED_BLOCK_BINS {
        let out = campaign(
            exe,
            &[
                "--quick",
                "--seeds",
                "4",
                "--check",
                "/nonexistent/base.json",
            ],
        );
        assert_eq!(out.status.code(), Some(2), "{name}");
        assert!(
            stderr(&out).contains("cannot read baseline"),
            "{name}: {}",
            stderr(&out)
        );
    }
}

/// Flag errors are caught before any work runs, in every campaign.
#[test]
fn malformed_invocations_are_usage_errors_in_every_campaign() {
    let bins = [
        env!("CARGO_BIN_EXE_difftest_campaign"),
        env!("CARGO_BIN_EXE_sched_campaign"),
        env!("CARGO_BIN_EXE_faultinj_campaign"),
        env!("CARGO_BIN_EXE_validate_campaign"),
        env!("CARGO_BIN_EXE_obs_campaign"),
        env!("CARGO_BIN_EXE_resilience_campaign"),
        env!("CARGO_BIN_EXE_interp_campaign"),
        env!("CARGO_BIN_EXE_serve_campaign"),
    ];
    for exe in bins {
        for args in [&["--bogus"][..], &["--jobs"][..]] {
            let out = campaign(exe, args);
            assert_eq!(out.status.code(), Some(2), "{exe} {args:?}");
            assert!(
                stderr(&out).contains("usage: "),
                "{exe} {args:?}: {}",
                stderr(&out)
            );
        }
    }
}
