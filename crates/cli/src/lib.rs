//! # midas-cli — the `midas` command-line tool
//!
//! Drives slice discovery from the shell over simple TSV files:
//!
//! ```text
//! midas discover --facts facts.tsv [--kb kb.tsv] [--algorithm midas]
//!                [--threads 4] [--top 20] [--fp 10 --fc 0.001 --fd 0.01 --fv 0.1]
//!                [--csv] [--explain] [--snapshot-cache DIR]
//!                [--snapshot-cache-max-bytes N]
//! midas stats    --facts facts.tsv
//! midas generate --dataset synthetic|reverb-slim|nell-slim|kvault
//!                [--scale 0.01] [--seed 42] --out DIR
//! midas eval     --facts facts.tsv --gold gold.tsv [--kb kb.tsv] [--algorithm midas]
//! midas augment  --facts facts.tsv --kb kb.tsv [--rounds N] [--threads 4]
//!                [--snapshot-cache DIR] [--resume]
//! ```
//!
//! The facts file is 4-column TSV: `url \t subject \t predicate \t object`.
//! The KB file is 3-column TSV (`subject \t predicate \t object`). The gold
//! file is 3-column TSV (`url \t slice_id \t entity`); each distinct
//! `(url, slice_id)` pair forms one gold slice.
//!
//! All functionality lives in this library crate so it is unit-testable;
//! `main.rs` is a thin shim.

#![warn(missing_docs)]

pub mod args;
pub mod cache_dir;
pub mod checkpoint;
pub mod commands;
pub mod facts_io;
#[cfg(test)]
mod ingest_oracle;
pub mod snapshot_cache;

pub use args::{CliError, Command, ParsedArgs};

/// Entry point shared by the binary and the tests: parses `argv` (without
/// the program name) and runs the command, writing to `out`.
pub fn run(argv: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    // Pin the kernel table here, on the main thread: a bad MIDAS_KERNEL
    // value must be a startup error, not a panic inside a fault-isolated
    // detection worker (where it would quarantine every source instead).
    midas_core::extent::kernels::try_active().map_err(CliError::Usage)?;
    let parsed = ParsedArgs::parse(argv)?;
    commands::dispatch(parsed, out)
}
