//! The `hetsort` command-line tool. See the library crate docs for the
//! subcommand and flag reference.

use std::io::{ErrorKind, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match hetsort_cli::Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match hetsort_cli::run(&opts) {
        Ok(msg) => {
            let mut out = std::io::stdout().lock();
            match writeln!(out, "{msg}").and_then(|()| out.flush()) {
                Ok(()) => {}
                // The reader went away (`hetsort … | head`): nothing is
                // left to report to.
                Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
                Err(e) => {
                    eprintln!("error: cannot write the result: {e}");
                    std::process::exit(1);
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
