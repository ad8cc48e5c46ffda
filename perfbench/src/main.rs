//! Benchmark of the Know Your Phish reproduction.
//!
//! Each workload is one of the system's public operations, run end to end
//! over a corpus generated from `--seed`, single-threaded:
//!
//! - `scan-store`: `kyp scan --from-store --cascade`, classifying every
//!   page of a persisted corpus (store decode, URL stage, full pipeline);
//! - `crawl-ingest`: `kyp gen --store`, scraping the corpus and streaming
//!   pages and feature rows to disk (scrape, extraction, store writer);
//! - `serve-cascade`: `kyp serve --cascade`, a request trace through the
//!   scoring service with live scrapes (URL stage, admission queue,
//!   micro-batcher, verdict cache, full pipeline).
//!
//! A run sets the workload up [`SETUP_REPS`] times, timing only the
//! program's own set-up calls, then computes a reference by a different
//! path, untimed. It makes one checked warm-up pass, then repeats passes
//! over the same inputs for `--seconds` and checks every pass's output
//! against the reference. With `--trace 0` it reports the end-to-end
//! metrics; with `--trace 1` the passes drive each layer's entry point in
//! turn and it reports the per-layer ledger instead (see [`ledger`]).
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan-store --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod calibrate;
mod crawl_ingest;
mod ledger;
mod scan_store;
mod serve_cascade;
mod setup;

use ledger::{Counts, Ledger, LAYERS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Passes measured even when `--seconds` runs out first.
const MIN_PASSES: usize = 10;

/// Where runs keep their store files, relative to the working directory.
const WORK_ROOT: &str = ".perfbench-work";

/// One workload: a pass over its inputs, and a check of what it returned.
pub trait Workload {
    /// What a pass returns for checking.
    type Output;

    /// Computes, by a different path than a pass, the reference that
    /// [`Workload::check`] compares passes with. Runs once, untimed,
    /// after the last set-up.
    fn reference(&mut self) -> Result<(), String>;

    /// Runs one pass: through the public entry point when `ledger` is
    /// `None`, otherwise layer by layer with spans into `ledger`.
    fn pass(&mut self, ledger: Option<&mut Ledger>) -> Result<Self::Output, String>;

    /// Checks a pass's output against the reference and counts its work.
    fn check(&mut self, output: &Self::Output) -> Result<Counts, String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(&"must be a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// A run's store directory, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: &str) -> Self {
        WorkDir(Path::new(WORK_ROOT).join(format!("{workload}-{}", std::process::id())))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using the root.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

/// What a run measured. Times are at reference speed (see [`calibrate`]).
struct Measured {
    /// Seconds of each set-up.
    setup_s: Vec<f64>,
    /// Microseconds per item, one value per measured pass.
    item_us: Vec<f64>,
    /// The same, unscaled wall-clock time.
    wall_item_us: Vec<f64>,
    /// The calibration factor of each set-up and pass.
    scales: Vec<f64>,
    attempted: u64,
    failed: u64,
    counts: Counts,
    /// Nanoseconds in each layer's spans over all passes (traced runs).
    layer_ns: [f64; LAYERS.len()],
    /// Pass time outside every layer span (traced runs).
    unattributed_ns: f64,
}

fn measure<W: Workload>(
    args: &Args,
    mut setup: impl FnMut() -> Result<W, String>,
) -> Result<Measured, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut scales = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        // Free the previous set-up first, so only one is ever alive.
        drop(workload.take());
        let before = calibrate::kernel_ns();
        let t0 = Instant::now();
        workload = Some(setup()?);
        let wall = t0.elapsed();
        let scale = calibrate::scale(before, calibrate::kernel_ns());
        setup_s.push(wall.as_secs_f64() * scale);
        scales.push(scale);
    }
    let mut workload = workload.ok_or("no set-up ran")?;
    workload.reference()?;

    let mut warmup = Ledger::default();
    let output = workload.pass(args.trace.then_some(&mut warmup))?;
    workload.check(&output)?;
    drop(output);

    let mut m = Measured {
        setup_s,
        item_us: Vec::new(),
        wall_item_us: Vec::new(),
        scales,
        attempted: 0,
        failed: 0,
        counts: Counts::default(),
        layer_ns: [0.0; LAYERS.len()],
        unattributed_ns: 0.0,
    };
    let start = Instant::now();
    while m.item_us.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let mut ledger = Ledger::default();
        let before = calibrate::kernel_ns();
        let t0 = Instant::now();
        let output = workload.pass(args.trace.then_some(&mut ledger))?;
        let wall = t0.elapsed();
        let counts = workload.check(&output)?;
        // Calibrate only once the pass's output is freed, so that what a
        // pass allocates or keeps cannot slow the kernel down.
        drop(output);
        let scale = calibrate::scale(before, calibrate::kernel_ns());
        if counts.items == 0 {
            return Err("a pass handled no items".to_owned());
        }
        for layer in LAYERS {
            m.layer_ns[layer as usize] += ledger.ns(layer) as f64 * scale;
        }
        m.unattributed_ns += wall.as_nanos().saturating_sub(ledger.total()) as f64 * scale;
        let wall_item_us = wall.as_secs_f64() * 1e6 / counts.items as f64;
        m.item_us.push(wall_item_us * scale);
        m.wall_item_us.push(wall_item_us);
        m.scales.push(scale);
        m.attempted += counts.items;
        m.failed += counts.failed;
        m.counts = counts;
    }
    Ok(m)
}

/// The `q`-quantile of `values` by linear interpolation between ranks.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

fn report(args: &Args, m: &Measured) -> String {
    let mut metrics = Vec::new();
    if args.trace {
        let items = m.attempted as f64;
        for layer in LAYERS {
            metrics.push(metric(
                layer.metric(),
                m.layer_ns[layer as usize] / items,
                "ns",
            ));
        }
        metrics.push(metric("unattributed_ns", m.unattributed_ns / items, "ns"));
        let c = &m.counts;
        for (name, value) in [
            ("items", c.items),
            ("url_final", c.url_final),
            ("full_classified", c.full),
            ("flagged", c.flagged),
            ("cache_hits", c.cache_hits),
            ("batches", c.batches),
        ] {
            metrics.push(metric(name, value as f64, "count"));
        }
        metrics.push(metric("store_bytes", c.store_bytes as f64, "bytes"));
    } else {
        metrics.push(metric("item_us", quantile(&m.item_us, 0.5), "us"));
        metrics.push(metric("setup_s", quantile(&m.setup_s, 0.5), "s"));
    }
    eprintln!(
        "[perfbench] {} seed {}: {} passes, {} items, {} failed, set-ups {:?} s, \
         item_us {:.3} (wall clock {:.3}), host at {:.3}x reference speed",
        args.workload,
        args.seed,
        m.item_us.len(),
        m.attempted,
        m.failed,
        m.setup_s,
        quantile(&m.item_us, 0.5),
        quantile(&m.wall_item_us, 0.5),
        1.0 / quantile(&m.scales, 0.5)
    );
    result_line(true, m.attempted, m.failed, &metrics)
}

fn run(args: &Args) -> Result<String, String> {
    // One thread: the figures then do not depend on how many cores the
    // host lends the run.
    knowyourphish::exec::set_threads(1);
    let work = WorkDir::new(&args.workload);
    let seed = args.seed;
    let m = match args.workload.as_str() {
        "scan-store" => measure(args, || scan_store::setup(seed, &work.0))?,
        "crawl-ingest" => measure(args, || crawl_ingest::setup(seed, &work.0))?,
        "serve-cascade" => measure(args, || serve_cascade::setup(seed))?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok(report(args, &m))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            println!("{}", result_line(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}
