//! A value flag followed by another flag or by nothing stops the `hetsort`
//! binary with a usage error (exit 2) that names the flag; the next flag is
//! never taken as its value. A removed flag is such a flag too.

use std::process::{Command, Stdio};

#[test]
fn a_value_flag_without_its_value_is_named() {
    for (args, flag) in [
        ("cluster --seed --n 1000 --perf 1,1,4,4", "seed"),
        ("cluster --streaming-merge --n 1000", "streaming-merge"),
        (
            "cluster --calibration-report --n 1000",
            "calibration-report",
        ),
        ("sort --dir d --input in --output", "output"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hetsort"))
            .args(args.split_whitespace())
            .stdin(Stdio::null())
            .output()
            .expect("run hetsort");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {err}");
        assert_eq!(err.trim(), format!("error: flag --{flag} needs a value"));
        assert!(out.stdout.is_empty(), "{args}: nothing runs");
    }
}
