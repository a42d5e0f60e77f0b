//! `dualminer` — the command-line frontend.
//!
//! ```text
//! dualminer mine <baskets.txt> --min-support <N|0.x> [--rules <conf>] [--maximal]
//! dualminer keys <relation.csv> [--fds]
//! dualminer transversals <hypergraph.txt> [--algo auto|berge|fk|levelwise|mu-mmcs|egm]
//! dualminer verify-dual <f.txt> <g.txt>
//! dualminer serve [--listen <host:port>] [--unix <path>]
//! dualminer request <addr> --json <line>
//! ```
//!
//! File formats (see `dualminer_serve::formats`): baskets are one
//! transaction per line with whitespace-separated item names; relations
//! are CSV with a header row; hypergraphs are one edge per line with
//! whitespace-separated vertex names.

mod args;
mod commands;

use std::process::ExitCode;

/// Restores the default `SIGPIPE` disposition so `dualminer ... | head`
/// dies quietly like other Unix filters instead of panicking when stdout
/// closes (Rust ignores `SIGPIPE` by default, turning `EPIPE` into a
/// `println!` panic).
#[cfg(unix)]
fn restore_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn restore_sigpipe() {}

/// Exit codes: 0 success, 1 `verify-dual` answered "not dual", 2 usage,
/// 3 input parse, 4 I/O (including bad checkpoints), 5 oracle fault
/// survived the retry budget, 6 budget exceeded (partial output was
/// printed), 7 connection or protocol failure (`serve`/`request`). See
/// `CliError::exit_code`.
fn main() -> ExitCode {
    restore_sigpipe();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => match commands::run(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                if !e.is_silent() {
                    eprintln!("error: {e}");
                }
                ExitCode::from(e.exit_code())
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            ExitCode::from(2)
        }
    }
}
