#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! Experiment harness for the *Know Your Phish* reproduction.
//!
//! Shared machinery for the per-table/per-figure experiment binaries in
//! `src/bin/` (see DESIGN.md for the experiment index): scraping URL lists
//! into feature datasets, scoring, and formatting the paper's tables.
//!
//! Every binary accepts a `--scale <fraction>` argument (default 0.05)
//! that scales Table V sizes, `--seed <n>` to vary the corpus and
//! `--threads <n>` to size the worker pool, and refuses any other
//! argument. The wall-clock benchmark is `perfbench/`; the only timer
//! here is Table VIII's one-pass stage table (`exp_table8_timing`).

pub mod harness;
pub mod plot;
pub mod report;
pub mod table;

pub use harness::{scrape_dataset, scrape_visits, EvalArgs, ExperimentEnv};
pub use report::write_bench_section;
pub use table::{fmt_f, EvalRow};
