//! `hetsort help` lists every subcommand's flags and `hetsort <cmd> --help`
//! (or `-h`) the flags of one, exactly those the subcommand accepts: the
//! lists are checked against the ones its unknown-flag error names.

use std::process::{Command, Output, Stdio};

fn hetsort(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hetsort"))
        .args(args.split_whitespace())
        .stdin(Stdio::null())
        .output()
        .expect("run hetsort")
}

/// The flags `command` accepts, as its unknown-flag error lists them.
fn accepted(command: &str) -> Vec<String> {
    let out = hetsort(&format!("{command} --no-such-flag 1"));
    let err = String::from_utf8_lossy(&out.stderr);
    let list = err
        .split("(accepted: ")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .unwrap_or_else(|| panic!("{command}: no accepted list in {err:?}"));
    list.split_whitespace().map(String::from).collect()
}

/// The `--flag` words of a help text below its usage banner.
fn listed(help: &str) -> Vec<String> {
    let (_, lists) = help.split_once("\n\n").expect("a banner, then the lists");
    lists
        .split_whitespace()
        .filter(|w| w.starts_with("--"))
        .map(String::from)
        .collect()
}

/// Runs `args`, which must succeed quietly on stderr; returns stdout.
fn ok(args: &str) -> String {
    let out = hetsort(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{args}: {err}");
    assert!(err.is_empty(), "{args}: {err}");
    String::from_utf8(out.stdout).expect("utf-8 help")
}

#[test]
fn each_subcommand_lists_the_flags_it_accepts() {
    for command in ["gen", "sort", "verify", "cluster"] {
        let flags = accepted(command);
        assert!(!flags.is_empty(), "{command}");
        for args in [
            format!("{command} --help"),
            format!("{command} -h"),
            // A value flag before `--help` is not a missing value.
            format!("{command} --seed --help"),
        ] {
            let help = ok(&args);
            assert!(help.starts_with("usage: hetsort"), "{args}: {help}");
            assert!(help.contains(&format!("hetsort {command}:")), "{args}");
            assert_eq!(listed(&help), flags, "{args}");
        }
    }
}

#[test]
fn help_lists_every_subcommand() {
    for args in ["help", "--help", "-h"] {
        let help = ok(args);
        let mut all = Vec::new();
        for command in ["gen", "sort", "verify", "cluster"] {
            assert!(help.contains(&format!("hetsort {command}:")), "{args}");
            all.extend(accepted(command));
        }
        assert_eq!(listed(&help), all, "{args}");
    }
}
