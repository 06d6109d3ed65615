//! Workspace automation entry point (the `cargo xtask` pattern):
//! subcommands that are too repo-specific for clippy but too
//! mechanical to leave to review.
//!
//! ```text
//! cargo run -p xtask -- lint    # tree-wide invariant checks
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

mod lint;

fn usage() -> ExitCode {
    eprintln!("usage: cargo run -p xtask -- <command>");
    eprintln!();
    eprintln!("commands:");
    eprintln!("  lint    check repo invariants (SAFETY comments, unsafe allowlist,");
    eprintln!("          poison-aware locks and registry-only counters in serve)");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let repo_root: PathBuf = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask lives one level under the repo root")
        .to_path_buf();

    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => {
            let violations = match lint::run(&repo_root) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("xtask lint: {e}");
                    return ExitCode::from(2);
                }
            };
            if violations.is_empty() {
                println!("xtask lint: ok");
                ExitCode::SUCCESS
            } else {
                for v in &violations {
                    eprintln!("{v}");
                }
                eprintln!("xtask lint: {} violation(s)", violations.len());
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}
