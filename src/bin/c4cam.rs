//! The `c4cam` command-line compiler driver. `c4cam help` prints every
//! command's synopsis and `c4cam <command> --help` prints one command's
//! (both generated from the flag table in `c4cam::cli`).
//!
//! Reports go to stdout; diagnostics go to stderr. The exit code
//! distinguishes usage errors (2: unknown commands or flags, a flag the
//! command does not read, bad values and keywords, missing required
//! flags -- everything rejected at parse time) from execution failures
//! (1: a valid command whose pipeline, simulation, or I/O failed), so
//! scripts can tell a typo from a real failure.

use c4cam::cli;
use std::io::{self, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse_args(&args) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match cli::execute(&command) {
        Ok(output) => {
            let mut stdout = io::stdout().lock();
            match writeln!(stdout, "{output}").and_then(|()| stdout.flush()) {
                // A reader that stops early (`c4cam help | head -1`)
                // ends the report, not the command.
                Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
                    eprintln!("error: writing the report: {e}");
                    std::process::exit(1);
                }
                _ => {}
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
