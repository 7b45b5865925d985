//! The `forumcast` command-line tool. See [`forumcast_cli`] for the
//! commands.

fn main() {
    let code = forumcast_cli::run(
        std::env::args().skip(1),
        &mut std::io::stdout(),
        &mut std::io::stderr(),
    );
    std::process::exit(code);
}
