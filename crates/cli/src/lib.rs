//! Library backing the `forumcast` command-line tool: argument
//! parsing, the command implementations and the paper's experiments,
//! separated from `main` so they are unit-testable.
//!
//! ```text
//! forumcast generate --scale small --seed 7 --out forum.json
//! forumcast stats    --data forum.json
//! forumcast train    --data forum.json --out model.json --fast
//! forumcast predict  --data forum.json --model model.json --question 12 --user 3
//! forumcast route    --data forum.json --model model.json --question 12 --lambda 0.5
//! forumcast evaluate --scale quick
//! forumcast fig5     --scale standard --resume fig5.ckpt
//! forumcast abtest   --scale quick --lambda 0.5
//! ```

pub mod args;
pub mod commands;
pub mod experiments;

pub use args::{parse, Command, ParseError};

/// Entry point shared by `main` and tests: a command's output goes to
/// `out`, and its error message — with the usage text after a usage
/// error — to `err`. Returns the process exit code.
pub fn run<I: IntoIterator<Item = String>>(
    argv: I,
    out: &mut dyn std::io::Write,
    err: &mut dyn std::io::Write,
) -> i32 {
    match parse(argv) {
        Ok(cmd) => match commands::execute(cmd, out) {
            Ok(()) => 0,
            Err(e) => {
                let _ = writeln!(err, "error: {e}");
                1
            }
        },
        Err(e) => {
            let _ = writeln!(err, "error: {e}");
            let _ = writeln!(err, "{}", args::USAGE);
            2
        }
    }
}
