//! The `hetsort` binary ends quietly when its stdout is already closed
//! (`hetsort … | head` after `head` exits) instead of panicking on the
//! broken pipe.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_without_a_panic() {
    // A pipe whose read end is gone before the child starts: every write
    // to it fails with EPIPE.
    let (reader, writer) = std::io::pipe().expect("create pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_hetsort"))
        .args(
            "cluster --n 20000 --perf 1,1,4,4 --mem 4096 --tapes 4 --msg 512 --block 1024 \
             --whatif"
                .split_whitespace(),
        )
        .stdin(Stdio::null())
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run hetsort");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}
