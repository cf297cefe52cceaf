//! Docs-freshness gate: README.md's flags table documents exactly the flags
//! the shared parser accepts.
//!
//! [`runner::KNOWN_FLAGS`] is the contract: `runner::parse` and the table
//! drift independently, and a flag shipped without a row, or a row left
//! behind by a removed flag, is how operator docs rot. CI runs this binary
//! (see ci.sh); it exits nonzero naming the first flag out of step. The
//! runner's own unit tests close the loop — every `KNOWN_FLAGS` entry must
//! appear in `runner::USAGE` too.

use npar_bench::runner;

fn main() {
    let readme_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(readme_path).expect("read README.md");

    // The flags table: markdown rows whose first cell is a backticked flag.
    let rows: Vec<&str> = readme
        .lines()
        .filter(|l| l.trim_start().starts_with("| `--"))
        .collect();
    if rows.is_empty() {
        eprintln!("DOCS: README.md has no flags table (rows starting with \"| `--\")");
        std::process::exit(1);
    }

    let mut missing = Vec::new();
    for flag in runner::KNOWN_FLAGS {
        // Match on the opening backtick so `--threads` cannot piggyback on
        // the `--timing-threads` row.
        let documented = rows.iter().any(|row| row.contains(&format!("`{flag}")));
        if !documented {
            missing.push(*flag);
        }
    }
    if let Some(first) = missing.first() {
        eprintln!(
            "DOCS: flag {first} is accepted by runner::parse but missing from the README.md \
             flags table (all missing: {})",
            missing.join(", ")
        );
        std::process::exit(1);
    }

    // The other direction: a row's flag is its first backticked token, cut
    // at the value syntax (`--check=strict`, `--profile[=<path>]`,
    // `--threads N`).
    let stale: Vec<&str> = rows
        .iter()
        .filter_map(|row| row.split('`').nth(1))
        .map(|token| token.split(['[', '=', ' ']).next().unwrap_or(token))
        .filter(|flag| !runner::KNOWN_FLAGS.contains(flag))
        .collect();
    if let Some(first) = stale.first() {
        eprintln!(
            "DOCS: README.md's flags table has a row for {first}, which runner::parse does not \
             accept (all stale: {})",
            stale.join(", ")
        );
        std::process::exit(1);
    }
    println!(
        "docs_check: README.md documents exactly the {} accepted flags",
        runner::KNOWN_FLAGS.len()
    );
}
