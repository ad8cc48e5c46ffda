//! `kyp` — command-line workflow for the Know Your Phish reproduction.
//!
//! Operates on one corpus format: the directory `kyp gen` writes, whose
//! layout [`knowyourphish::storeflow`] owns (scraped pages and their
//! feature rows in the columnar store, the ranking and search-index
//! sidecars, a sample page). The trained model is a self-contained json
//! snapshot.
//!
//! ```console
//! $ kyp gen   --scale 0.02 --out data/           # synthesise + scrape a corpus
//! $ kyp train --data data/ --out model.json      # train the detector
//! $ kyp eval  --data data/ --model model.json    # Table VI-style metrics
//! $ kyp scan  --model model.json --data data/ --page data/sample_phish.json
//! $ kyp serve --model model.json --data data/ --requests 1000
//! ```
//!
//! Every subcommand is declared as a [`CommandSpec`]; argument validation
//! and per-subcommand `--help` come from the shared parser in
//! [`knowyourphish::cli`], so an unknown or valueless option is a hard
//! error everywhere.

use knowyourphish::cli::{ArgSpec, CommandSpec, Parsed, ParsedOpts};
use knowyourphish::cluster::{verdict_stream, ClusterConfig, ClusterService, CrashPlan};
use knowyourphish::core::{
    CascadeBand, CascadeClassifier, CascadeDecision, DetectorConfig, ModelSnapshot, PhishDetector,
    Pipeline, PipelineVerdict, STAGE_FULL,
};
use knowyourphish::datagen::{check_scale, CampaignConfig, Corpus};
use knowyourphish::ml::metrics;
use knowyourphish::obs::{ObsSink, PipelineObserver};
use knowyourphish::serve::{
    generate, ArrivalPattern, BatchPolicy, ScoringService, ServeConfig, ServeRequest, StoredPages,
    WorkloadConfig,
};
use knowyourphish::storeflow;
use knowyourphish::web::{FaultPlan, FlakyWorld, SourceAvailability, VisitedPage};
use std::fs;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const THREADS_ARG: ArgSpec = ArgSpec {
    name: "threads",
    value: "<n>",
    help:
        "parallel pool size (default: KYP_THREADS or auto); results are bit-identical at any count",
};

const METRICS_ARG: ArgSpec = ArgSpec {
    name: "metrics",
    value: "<path>",
    help: "write the observability metrics registry as json",
};

const TRACE_ARG: ArgSpec = ArgSpec {
    name: "trace",
    value: "<path>",
    help: "write the span/event trace as newline-delimited json",
};

const CASCADE_ARG: ArgSpec = ArgSpec {
    name: "cascade",
    value: "<model.json>",
    help:
        "URL-only pre-filter snapshot (`kyp cascade-train`); confident URLs skip the full pipeline",
};

const CASCADE_BAND_ARG: ArgSpec = ArgSpec {
    name: "cascade-band",
    value: "<lo,hi>",
    help: "cascade uncertainty band in [0,1] (default 0.15,0.85; `0,1` forces every page full)",
};

const DATA_ARG: ArgSpec = ArgSpec {
    name: "data",
    value: "<dir>",
    help: "`kyp gen` corpus directory (required)",
};

/// Every `kyp` subcommand, with the full set of options it accepts.
const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "gen",
        summary: "synthesise a corpus, scrape it and stream pages + features into a columnar store",
        positional: None,
        args: &[
            ArgSpec {
                name: "out",
                value: "<dir>",
                help: "corpus directory to write (required)",
            },
            ArgSpec {
                name: "scale",
                value: "<f>",
                help: "corpus scale factor (default 0.02)",
            },
            ArgSpec {
                name: "seed",
                value: "<n>",
                help: "campaign rng seed",
            },
            ArgSpec {
                name: "fault-rate",
                value: "<f>",
                help: "scrape through an unreliable web at this fault rate",
            },
            ArgSpec {
                name: "fault-seed",
                value: "<n>",
                help: "fault plan seed (default: the campaign seed)",
            },
            THREADS_ARG,
        ],
    },
    CommandSpec {
        name: "train",
        summary: "train the detector from the stored training rows (no re-extraction)",
        positional: None,
        args: &[
            DATA_ARG,
            ArgSpec {
                name: "out",
                value: "<model.json>",
                help: "model snapshot path (required)",
            },
            THREADS_ARG,
        ],
    },
    CommandSpec {
        name: "cascade-train",
        summary: "train the URL-only cascade pre-filter from the training URLs",
        positional: None,
        args: &[
            DATA_ARG,
            ArgSpec {
                name: "out",
                value: "<model.json>",
                help: "URL-stage snapshot path (required)",
            },
            THREADS_ARG,
        ],
    },
    CommandSpec {
        name: "eval",
        summary: "Table VI-style metrics on the held-out test rows",
        positional: None,
        args: &[
            DATA_ARG,
            ArgSpec {
                name: "model",
                value: "<model.json>",
                help: "trained model snapshot (required)",
            },
            THREADS_ARG,
        ],
    },
    CommandSpec {
        name: "scan",
        summary: "classify every stored page — or one scraped page — and identify targets",
        positional: None,
        args: &[
            ArgSpec {
                name: "model",
                value: "<model.json>",
                help: "trained model snapshot (required)",
            },
            DATA_ARG,
            ArgSpec {
                name: "page",
                value: "<page.json>",
                help: "classify this scraped page instead of every stored page",
            },
            ArgSpec {
                name: "verdicts",
                value: "<path>",
                help: "without --page: write the verdict stream here instead of stdout",
            },
            CASCADE_ARG,
            CASCADE_BAND_ARG,
            METRICS_ARG,
            TRACE_ARG,
            THREADS_ARG,
        ],
    },
    CommandSpec {
        name: "serve",
        summary: "online scoring service over the captured corpus",
        positional: None,
        args: &[
            ArgSpec {
                name: "model",
                value: "<model.json>",
                help: "trained model snapshot (required)",
            },
            DATA_ARG,
            ArgSpec {
                name: "requests",
                value: "<n>",
                help: "serve a seeded synthetic trace instead of stdin",
            },
            ArgSpec {
                name: "trace-seed",
                value: "<n>",
                help: "with --requests: synthetic trace seed (default 2015)",
            },
            ArgSpec {
                name: "duplicate-rate",
                value: "<f>",
                help: "with --requests: synthetic trace duplicate fraction (default 0.2)",
            },
            ArgSpec {
                name: "arrival-gap-ms",
                value: "<n>",
                help: "with --requests: synthetic trace inter-arrival gap (default 10)",
            },
            ArgSpec {
                name: "queue-capacity",
                value: "<n>",
                help: "admission queue capacity (default 64)",
            },
            ArgSpec {
                name: "max-batch",
                value: "<n>",
                help: "micro-batch size limit (default 8)",
            },
            ArgSpec {
                name: "max-delay-ms",
                value: "<n>",
                help: "micro-batch delay limit (default 25)",
            },
            ArgSpec {
                name: "cache",
                value: "on|off",
                help: "verdict cache (default on)",
            },
            CASCADE_ARG,
            CASCADE_BAND_ARG,
            METRICS_ARG,
            TRACE_ARG,
            THREADS_ARG,
        ],
    },
    CommandSpec {
        name: "cluster",
        summary: "deterministic multi-node serving simulation over the corpus",
        positional: None,
        args: &[
            ArgSpec {
                name: "model",
                value: "<model.json>",
                help: "trained model snapshot (required)",
            },
            DATA_ARG,
            ArgSpec {
                name: "shards",
                value: "<n>",
                help: "scoring nodes / cache shards (default 4)",
            },
            ArgSpec {
                name: "replicas",
                value: "<n>",
                help: "replica fan-out for hot URLs (default 1)",
            },
            ArgSpec {
                name: "crash-rate",
                value: "<f>",
                help: "per-incarnation node crash probability (default 0)",
            },
            ArgSpec {
                name: "crash-seed",
                value: "<n>",
                help: "crash schedule seed (default 2015)",
            },
            ArgSpec {
                name: "requests",
                value: "<n>",
                help: "synthetic trace length (default 500)",
            },
            ArgSpec {
                name: "trace-seed",
                value: "<n>",
                help: "synthetic trace seed (default 2015)",
            },
            ArgSpec {
                name: "duplicate-rate",
                value: "<f>",
                help: "synthetic trace duplicate fraction (default 0.2)",
            },
            ArgSpec {
                name: "arrival-gap-ms",
                value: "<n>",
                help: "synthetic trace inter-arrival gap (default 10)",
            },
            ArgSpec {
                name: "queue-capacity",
                value: "<n>",
                help: "per-node admission queue capacity (default 64)",
            },
            ArgSpec {
                name: "verdicts",
                value: "<path>",
                help: "write the id-sorted verdict stream (the placement-invariant bytes)",
            },
            CASCADE_ARG,
            CASCADE_BAND_ARG,
            METRICS_ARG,
            THREADS_ARG,
        ],
    },
];

/// `kyp store <subcommand>` — currently just `inspect`. Dispatched
/// outside [`COMMANDS`] because it is the one two-word command.
const STORE_INSPECT: CommandSpec = CommandSpec {
    name: "store inspect",
    summary: "validate a columnar store directory and print its layout",
    positional: Some(&ArgSpec {
        name: "dir",
        value: "<dir>",
        help: "`kyp gen` directory to inspect",
    }),
    args: &[THREADS_ARG],
};

/// Parses one subcommand's arguments against `spec`, printing help or
/// parse errors itself. `Ok(None)` means "already handled, exit clean".
fn parse_command(spec: &CommandSpec, args: &[String]) -> Result<Option<ParsedOpts>, ExitCode> {
    let opts = match spec.parse(args) {
        Ok(Parsed::Help) => {
            println!("{}", spec.help_text());
            return Ok(None);
        }
        Ok(Parsed::Opts(opts)) => opts,
        Err(e) => {
            eprintln!("kyp: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    if let Some(threads) = opts.get("threads") {
        match threads.parse::<usize>() {
            Ok(n) if n >= 1 => knowyourphish::exec::set_threads(n),
            _ => {
                eprintln!("kyp: invalid --threads {threads:?} (want a positive integer)");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    Ok(Some(opts))
}

fn finish(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("kyp: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if command == "store" {
        match args.get(1).map(String::as_str) {
            Some("inspect") => {
                return match parse_command(&STORE_INSPECT, &args[2..]) {
                    Ok(Some(opts)) => finish(cmd_store_inspect(&opts)),
                    Ok(None) => ExitCode::SUCCESS,
                    Err(code) => code,
                };
            }
            Some("--help") | None => {
                println!("{}", STORE_INSPECT.help_text());
                return ExitCode::SUCCESS;
            }
            Some(other) => {
                eprintln!(
                    "kyp: unknown store subcommand {other:?} (try `kyp store inspect <dir>`)"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(spec) = COMMANDS.iter().find(|s| s.name == command.as_str()) else {
        eprintln!("kyp: unknown command {command:?}\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_command(spec, &args[1..]) {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(code) => return code,
    };
    finish(match spec.name {
        "gen" => cmd_gen(&opts),
        "train" => cmd_train(&opts),
        "cascade-train" => cmd_cascade_train(&opts),
        "eval" => cmd_eval(&opts),
        "scan" => cmd_scan(&opts),
        "serve" => cmd_serve(&opts),
        "cluster" => cmd_cluster(&opts),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    })
}

const USAGE: &str = "\
kyp — Know Your Phish reproduction CLI

USAGE:
  kyp gen   --out <dir> [--scale <f>] [--seed <n>]   generate + scrape a corpus
            [--fault-rate <f>] [--fault-seed <n>]    ...through an unreliable web
  kyp train --data <dir> --out <model.json>          train the detector
  kyp cascade-train --data <dir> --out <model.json>  train the URL-only pre-filter
  kyp eval  --data <dir> --model <model.json>        evaluate on the test sets
  kyp scan  --model <model.json> --data <dir>        classify every stored page
            [--verdicts <path>]                      ...into a verdict file
            [--page <page.json>]                     ...or one scraped page
            [--metrics <path>] [--trace <path>]      ...with observability exports
            [--cascade <model.json>] [--cascade-band <lo,hi>]
  kyp serve --model <model.json> --data <dir>        online scoring service
            [--requests <n>] [--trace-seed <n>]      built-in seeded workload...
            [--duplicate-rate <f>] [--arrival-gap-ms <n>]
            [--queue-capacity <n>] [--max-batch <n>] [--max-delay-ms <n>]
            [--cache on|off]                         ...or requests over stdin
            [--cascade <model.json>] [--cascade-band <lo,hi>]
            [--metrics <path>] [--trace <path>]      observability exports
  kyp cluster --model <model.json> --data <dir>      multi-node serving simulation
            [--shards <n>] [--replicas <n>]          cache shards + hot fan-out
            [--crash-rate <f>] [--crash-seed <n>]    seeded crash/recovery schedule
            [--requests <n>] [--trace-seed <n>]      seeded synthetic workload
            [--duplicate-rate <f>] [--arrival-gap-ms <n>] [--queue-capacity <n>]
            [--cascade <model.json>] [--cascade-band <lo,hi>]
            [--verdicts <path>] [--metrics <path>]   invariant bytes + cluster.* metrics
  kyp store inspect <dir>                            validate + describe a store

Run `kyp <command> --help` for the full option list of one command.
Unknown or valueless options are hard errors in every subcommand.

`kyp gen --out <dir>` scrapes the corpus once and streams the pages
AND their extracted feature rows into a checksummed columnar store
(pages.kyps + features.kypf) in bounded memory, next to the ranking
(ranker.json), the search index (index.jsonl) and a sample page
(sample_phish.json). Every other command reads that directory with
--data: train, eval, scan, serve and cluster stream the stored rows and
pages without re-scraping or re-extracting anything. Models, metrics
and verdict streams are byte-identical at any --threads value.

`kyp serve` speaks newline-delimited json. Without --requests it reads
one request object per stdin line and writes one response object per
stdout line (the end-of-run report goes to stderr):

  request : {\"id\": 0, \"url\": \"http://x.example.com/\", \"arrival_ms\": 0}
  response: {\"id\": 0, \"url\": \"...\", \"outcome\": {\"Verdict\": {\"kind\":
            \"legitimate\", \"score\": 0.12, \"targets\": []}}, \"cache\":
            \"Miss\", \"degraded\": false, \"latency_ms\": 10, \"completed_ms\": 10}

With --requests <n> it serves a seeded synthetic trace over the corpus
URLs instead; the same seed always produces the same responses.

`kyp cascade-train` fits a cheap URL-only detector over lexical URL
features (no page content). Passing that snapshot to scan, serve or
cluster via --cascade screens every URL first: scores outside the
uncertainty band are final at ~zero cost and carry `stage=url_only`;
only the uncertain band runs the full pipeline. --cascade-band 0,1
forces every page through the full pipeline — that stream is
byte-identical to the same run without --cascade (CI proves it with
`cmp`).

`kyp cluster` replays the same kind of trace through a simulated fleet:
N scoring nodes behind a consistent-hash router, with per-node
backpressure, seeded crash/recovery and heartbeat-driven failover. Its
--verdicts file (the id-sorted verdict stream) is byte-identical at any
--shards, --replicas, --threads or --crash-rate value — CI compares the
files with `cmp`.

--metrics and --trace (scan, serve) export the deterministic
observability layer: a metrics-registry json file and an NDJSON span
trace stamped from the virtual clock. Both files are byte-identical at
any --threads value.

Every command accepts --threads <n> to size the parallel execution pool
(default: KYP_THREADS or the machine's available parallelism). Results
are bit-identical at any thread count.";

/// Writes `contents` to `path`, creating parent directories as needed.
fn write_creating_dirs(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
    }
    fs::write(path, contents).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Honours `--metrics` / `--trace` by rendering the sink's registry and
/// tracer to the requested paths.
fn write_obs_exports(opts: &ParsedOpts, sink: &ObsSink) -> Result<(), String> {
    if let Some(path) = opts.get("metrics") {
        write_creating_dirs(Path::new(path), &sink.registry().render_json())?;
        eprintln!("wrote metrics to {path}");
    }
    if let Some(path) = opts.get("trace") {
        write_creating_dirs(Path::new(path), &sink.tracer().render_ndjson())?;
        eprintln!("wrote trace to {path}");
    }
    Ok(())
}

/// `kyp gen`: synthesise a corpus, scrape it once and stream pages and
/// feature rows into the columnar store, next to the corpus sidecars.
fn cmd_gen(opts: &ParsedOpts) -> Result<(), String> {
    let dir = Path::new(opts.require("out")?);
    let scale: f64 = opts.num("scale", 0.02)?;
    check_scale(scale).map_err(|want| {
        let given = opts.get("scale").unwrap_or_default();
        format!("invalid --scale {given} (want {want})")
    })?;
    let mut config = CampaignConfig::scaled(scale);
    config.seed = opts.num("seed", config.seed)?;
    let fault_rate: f64 = opts.num("fault-rate", 0.0)?;
    if !(0.0..=1.0).contains(&fault_rate) {
        return Err(format!(
            "invalid --fault-rate {fault_rate} (want a number in [0, 1])"
        ));
    }
    let fault_seed: u64 = opts.num("fault-seed", config.seed)?;

    eprintln!("generating corpus at scale {scale}...");
    let corpus = Corpus::generate(&config);
    eprintln!("streaming pages + features into the columnar store...");
    let report = if fault_rate > 0.0 {
        eprintln!("scraping through a faulty web (rate {fault_rate}, seed {fault_seed})...");
        let flaky = FlakyWorld::new(&corpus.world, FaultPlan::new(fault_seed, fault_rate));
        storeflow::build_store(dir, &corpus, &config, &flaky, fault_rate, fault_seed)?
    } else {
        storeflow::build_store(dir, &corpus, &config, &corpus.world, fault_rate, fault_seed)?
    };
    for (name, n) in &report.bundle_pages {
        eprintln!("  {name}: {n} pages");
    }
    let scrape = &report.scrape;
    eprintln!(
        "scrape report: {}/{} pages captured ({} degraded), {} retries, {} breaker trips",
        scrape.completed, scrape.requested, scrape.degraded, scrape.retries, scrape.breaker_trips
    );
    if scrape.failed > 0 {
        eprintln!(
            "  failures: {} transient, {} timeout, {} deadline, {} circuit-open, {} not-found, {} bad-url, {} redirect-loop",
            scrape.failed_transient,
            scrape.failed_timeout,
            scrape.failed_deadline,
            scrape.failed_circuit_open,
            scrape.failed_not_found,
            scrape.failed_bad_url,
            scrape.failed_too_many_redirects
        );
    }
    storeflow::write_sample_phish(dir, &corpus)?;
    eprintln!(
        "wrote corpus to {dir:?}: {} pages ({} bytes) + {} feature rows ({} bytes)",
        report.pages, report.page_bytes, report.rows, report.feature_bytes
    );
    Ok(())
}

/// `kyp train`: fit the detector straight from the stored training rows
/// (no re-extraction).
fn cmd_train(opts: &ParsedOpts) -> Result<(), String> {
    let data_dir = PathBuf::from(opts.require("data")?);
    let out = PathBuf::from(opts.require("out")?);

    let ranker = storeflow::load_ranker(&data_dir)?;
    let train = storeflow::load_split_dataset(&data_dir, "leg_train", "phish_train")?;
    let phish = train.labels().iter().filter(|l| **l).count();
    eprintln!(
        "training on {} legitimate + {} phish stored rows...",
        train.labels().len() - phish,
        phish
    );
    let detector = PhishDetector::train(&train, &DetectorConfig::default());
    let snapshot = ModelSnapshot::new(detector, ranker);
    snapshot
        .save(&out)
        .map_err(|e| format!("write {out:?}: {e}"))?;
    eprintln!(
        "model snapshot (format v{}) written to {out:?}",
        snapshot.format_version
    );
    Ok(())
}

/// `kyp cascade-train`: fit the URL-only first stage of the cascade
/// from the stored training pages' raw URLs — no page content.
fn cmd_cascade_train(opts: &ParsedOpts) -> Result<(), String> {
    let data_dir = PathBuf::from(opts.require("data")?);
    let out = PathBuf::from(opts.require("out")?);
    let ranker = storeflow::load_ranker(&data_dir)?;
    let (legit, phish) = storeflow::load_split_urls(&data_dir, "leg_train", "phish_train")?;
    eprintln!(
        "training the URL stage on {} legitimate + {} phish URLs...",
        legit.len(),
        phish.len()
    );
    let detector = knowyourphish::core::cascade::train_url_stage(
        &legit,
        &phish,
        &ranker,
        &DetectorConfig::url_stage(),
    )?;
    let snapshot = ModelSnapshot::new_url_stage(detector, ranker);
    snapshot
        .save(&out)
        .map_err(|e| format!("write {out:?}: {e}"))?;
    eprintln!(
        "URL-stage snapshot (format v{}) written to {out:?}",
        snapshot.format_version
    );
    Ok(())
}

/// Refuses options the chosen mode would silently ignore: the first of
/// `options` given is an error naming what it `needs`.
fn reject_unused(opts: &ParsedOpts, options: &[&str], needs: &str) -> Result<(), String> {
    match options.iter().find(|o| opts.get(o).is_some()) {
        Some(option) => Err(format!("--{option} needs {needs}")),
        None => Ok(()),
    }
}

/// Resolves `--cascade` / `--cascade-band` into a ready pre-filter.
/// `Ok(None)` means the cascade is off; a band without a model is a
/// hard error, as is a malformed band or a snapshot of the wrong stage.
fn load_cascade(opts: &ParsedOpts) -> Result<Option<CascadeClassifier>, String> {
    let Some(path) = opts.get("cascade") else {
        reject_unused(opts, &["cascade-band"], "--cascade <model.json>")?;
        return Ok(None);
    };
    let band = match opts.get("cascade-band") {
        Some(spec) => CascadeBand::parse(spec)?,
        None => CascadeBand::default(),
    };
    let snapshot =
        ModelSnapshot::load(Path::new(path)).map_err(|e| format!("load {path:?}: {e}"))?;
    let cascade = CascadeClassifier::from_snapshot(snapshot, band)
        .map_err(|e| format!("load {path:?}: {e}"))?;
    Ok(Some(cascade))
}

/// Loads the full-pipeline snapshot `--model` names, refusing one of
/// another stage or row width before it scores a page.
fn load_model(opts: &ParsedOpts) -> Result<ModelSnapshot, String> {
    let path = PathBuf::from(opts.require("model")?);
    let snapshot = ModelSnapshot::load(&path).map_err(|e| format!("load {path:?}: {e}"))?;
    snapshot
        .require_stage(STAGE_FULL)
        .map_err(|e| format!("load {path:?}: {e}"))?;
    Ok(snapshot)
}

/// `kyp eval`: Table VI-style metrics on the held-out test rows,
/// streamed block by block out of the feature store.
fn cmd_eval(opts: &ParsedOpts) -> Result<(), String> {
    let data_dir = PathBuf::from(opts.require("data")?);
    let bundle = load_model(opts)?;
    let (scores, labels) =
        storeflow::score_split_streaming(&data_dir, &bundle.detector, "leg_test", "phish_test")?;

    let conf = metrics::Confusion::at_threshold(&scores, &labels, bundle.detector.threshold());
    let phish = labels.iter().filter(|l| **l).count();
    println!(
        "test set: {} legitimate + {} phish",
        labels.len() - phish,
        phish
    );
    println!("precision {:.3}", conf.precision());
    println!("recall    {:.3}", conf.recall());
    println!("f1-score  {:.3}", conf.f1());
    println!("fp rate   {:.4}", conf.fpr());
    println!("auc       {:.4}", metrics::auc(&scores, &labels));
    Ok(())
}

/// `kyp scan` without `--page`: classify every stored page block by
/// block and emit the deterministic verdict stream (scores as exact
/// IEEE-754 bit patterns) to stdout or `--verdicts`.
fn scan_store(opts: &ParsedOpts, dir: &Path) -> Result<(), String> {
    let pipeline = storeflow::load_pipeline(dir, load_model(opts)?)?;
    let lines = if let Some(cascade) = load_cascade(opts)? {
        let (lines, counters) = storeflow::store_verdict_lines_cascade(dir, &pipeline, &cascade)?;
        eprintln!(
            "cascade (band {}): {} screened, {} final at the URL stage, {} fell through, {} unscorable",
            cascade.band(),
            counters.screened,
            counters.url_only,
            counters.fallthrough,
            counters.unscorable
        );
        lines
    } else {
        storeflow::store_verdict_lines(dir, &pipeline)?
    };
    if let Some(path) = opts.get("verdicts") {
        let mut stream = lines.join("\n");
        stream.push('\n');
        write_creating_dirs(Path::new(path), &stream)?;
        eprintln!("wrote {} verdicts to {path}", lines.len());
    } else {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for line in &lines {
            writeln!(out, "{line}").map_err(|e| e.to_string())?;
        }
        eprintln!("classified {} stored pages", lines.len());
    }
    Ok(())
}

/// `kyp scan`: classify every stored page — or, with `--page`, one
/// scraped page against the directory's index — and identify targets.
fn cmd_scan(opts: &ParsedOpts) -> Result<(), String> {
    let data_dir = PathBuf::from(opts.require("data")?);
    let Some(page_path) = opts.get("page") else {
        reject_unused(opts, &["metrics", "trace"], "--page <page.json>")?;
        return scan_store(opts, &data_dir);
    };
    reject_unused(opts, &["verdicts"], "a scan without --page")?;
    let bundle = load_model(opts)?;
    let json = fs::read_to_string(page_path).map_err(|e| format!("read {page_path:?}: {e}"))?;
    let page: VisitedPage = serde_json::from_str(&json).map_err(|e| e.to_string())?;
    let pipeline = storeflow::load_pipeline(&data_dir, bundle)?;

    println!("page  : {}", page.landing_url);
    println!("title : {:?}", page.title);
    let mut sink = ObsSink::new();
    if let Some(cascade) = load_cascade(opts)? {
        let decision = cascade.prescreen_url(&page.starting_url);
        sink.cascade_prescreen(decision.outcome());
        match decision {
            CascadeDecision::Final(verdict) => {
                println!(
                    "cascade: URL score {:.3} outside band {} — final at the URL stage, no scrape",
                    verdict.score(),
                    cascade.band()
                );
                match verdict.verdict {
                    PipelineVerdict::Suspicious { score } => {
                        println!("verdict: suspicious (confidence {score:.3}) stage=url_only");
                    }
                    _ => println!(
                        "verdict: legitimate (confidence {:.3}) stage=url_only",
                        verdict.score()
                    ),
                }
                return write_obs_exports(opts, &sink);
            }
            CascadeDecision::Uncertain { url_score } => println!(
                "cascade: URL score {url_score:.3} inside band {} — running the full pipeline",
                cascade.band()
            ),
            CascadeDecision::Unscorable => {
                println!("cascade: URL unscorable — running the full pipeline");
            }
        }
    }
    match pipeline.classify_bundle(&page, &SourceAvailability::FULL, &mut sink) {
        PipelineVerdict::Legitimate { score } => {
            println!("verdict: legitimate (confidence {score:.3})");
        }
        PipelineVerdict::ConfirmedLegitimate { score, step } => println!(
            "verdict: legitimate — flagged ({score:.3}) but confirmed at identification step {step}"
        ),
        PipelineVerdict::Phish { score, candidates } => {
            println!("verdict: PHISH (confidence {score:.3})");
            for (i, c) in candidates.iter().enumerate() {
                println!(
                    "  target #{} : {} ({}) — {} appearances",
                    i + 1,
                    c.mld,
                    c.rdn,
                    c.appearances
                );
            }
        }
        PipelineVerdict::Suspicious { score } => {
            println!("verdict: suspicious (confidence {score:.3}), no target identified");
        }
    }
    write_obs_exports(opts, &sink)
}

/// Assembles the serving pipeline and page store from a model snapshot
/// and a `kyp gen` corpus directory.
fn load_serving_stack(opts: &ParsedOpts) -> Result<(Pipeline, StoredPages, Vec<String>), String> {
    let snapshot = load_model(opts)?;
    let data_dir = PathBuf::from(opts.require("data")?);
    let pipeline = storeflow::load_pipeline(&data_dir, snapshot)?;
    let (pages, urls) = storeflow::load_serving_pages(&data_dir)?;
    Ok((pipeline, pages, urls))
}

/// `kyp store inspect <dir>`: validate both store files (headers,
/// per-block checksums, pages/features pairing) and print the layout.
fn cmd_store_inspect(opts: &ParsedOpts) -> Result<(), String> {
    let dir = PathBuf::from(opts.require("dir")?);
    let inspection = knowyourphish::store::inspect_dir(&dir)
        .map_err(|e| format!("inspect {}: {e}", dir.display()))?;
    print!("{}", inspection.render());
    if inspection.is_clean() {
        Ok(())
    } else {
        Err("store damage found (see report above)".to_owned())
    }
}

/// The seeded synthetic trace `serve --requests` and `cluster` replay:
/// `requests` long, shaped by `--trace-seed`, `--duplicate-rate` and
/// `--arrival-gap-ms`.
fn synthetic_workload(opts: &ParsedOpts, requests: usize) -> Result<WorkloadConfig, String> {
    Ok(WorkloadConfig {
        seed: opts.num("trace-seed", 2015)?,
        requests,
        duplicate_rate: opts.num("duplicate-rate", 0.2)?,
        arrival: ArrivalPattern::Steady {
            gap_ms: opts.num("arrival-gap-ms", 10)?,
        },
        fault_seed: 0,
        fault_rate: 0.0,
    })
}

/// `kyp serve`: online scoring over the captured corpus — newline-
/// delimited json requests on stdin (or a seeded synthetic trace with
/// `--requests`), one response per line on stdout, report on stderr.
fn cmd_serve(opts: &ParsedOpts) -> Result<(), String> {
    let workload = if opts.get("requests").is_some() {
        Some(synthetic_workload(opts, opts.num("requests", 0)?)?)
    } else {
        let shape = ["trace-seed", "duplicate-rate", "arrival-gap-ms"];
        reject_unused(opts, &shape, "--requests <n>")?;
        None
    };
    let (pipeline, pages, urls) = load_serving_stack(opts)?;
    let cache = match opts.get("cache") {
        None | Some("on") => true,
        Some("off") => false,
        Some(other) => return Err(format!("invalid --cache {other:?} (want on or off)")),
    };
    let config = ServeConfig {
        queue_capacity: opts.num("queue-capacity", 64)?,
        batch: BatchPolicy {
            max_batch: opts.num("max-batch", 8)?,
            max_delay_ms: opts.num("max-delay-ms", 25)?,
        },
        cache,
    };
    let mut service = ScoringService::new(pipeline, pages, config);
    if let Some(cascade) = load_cascade(opts)? {
        service = service.with_cascade(cascade);
    }
    let mut sink = ObsSink::new();

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut emit = |responses: Vec<knowyourphish::serve::ServeResponse>| -> Result<(), String> {
        for response in responses {
            let line = serde_json::to_string(&response).map_err(|e| e.to_string())?;
            writeln!(out, "{line}").map_err(|e| e.to_string())?;
        }
        Ok(())
    };

    if let Some(workload) = workload {
        let trace = generate(&workload, &urls);
        eprintln!(
            "serving {} synthetic requests (seed {}, duplicate rate {})...",
            trace.len(),
            workload.seed,
            workload.duplicate_rate
        );
        emit(service.run_trace_observed(&trace, &mut sink))?;
    } else {
        let stdin = std::io::stdin();
        for (i, line) in stdin.lock().lines().enumerate() {
            let line = line.map_err(|e| e.to_string())?;
            if line.trim().is_empty() {
                continue;
            }
            let request: ServeRequest =
                serde_json::from_str(&line).map_err(|e| format!("stdin line {}: {e}", i + 1))?;
            emit(service.push_observed(request, &mut sink))?;
        }
        emit(service.finish_observed(&mut sink))?;
    }

    let report = service.report();
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    eprintln!("{json}");
    service.export_metrics(sink.registry_mut());
    write_obs_exports(opts, &sink)
}

/// `kyp cluster`: replay a seeded synthetic trace through a simulated
/// multi-node scoring fleet — responses on stdout, report on stderr, the
/// id-sorted (placement-invariant) verdict stream to `--verdicts`.
fn cmd_cluster(opts: &ParsedOpts) -> Result<(), String> {
    let (pipeline, pages, urls) = load_serving_stack(opts)?;
    let crash_rate: f64 = opts.num("crash-rate", 0.0)?;
    let crash_seed: u64 = opts.num("crash-seed", 2015)?;
    let config = ClusterConfig {
        shards: opts.num("shards", 4)?,
        replicas: opts.num("replicas", 1)?,
        node: ServeConfig {
            queue_capacity: opts.num("queue-capacity", 64)?,
            ..ServeConfig::default()
        },
        crash: (crash_rate > 0.0).then(|| CrashPlan::new(crash_seed, crash_rate)),
        ..ClusterConfig::default()
    };
    let workload = synthetic_workload(opts, opts.num("requests", 500)?)?;
    let trace = generate(&workload, &urls);
    eprintln!(
        "simulating {} requests over {} nodes (replicas {}, crash rate {})...",
        trace.len(),
        config.shards,
        config.replicas,
        crash_rate
    );
    let mut cluster = ClusterService::new(pipeline, pages, config);
    if let Some(cascade) = load_cascade(opts)? {
        cluster = cluster.with_cascade(cascade);
    }
    let responses = cluster.run_trace(&trace);

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for response in &responses {
        let line = serde_json::to_string(response).map_err(|e| e.to_string())?;
        writeln!(out, "{line}").map_err(|e| e.to_string())?;
    }

    if let Some(path) = opts.get("verdicts") {
        let mut stream = verdict_stream(&responses).join("\n");
        stream.push('\n');
        write_creating_dirs(Path::new(path), &stream)?;
        eprintln!("wrote id-sorted verdict stream to {path}");
    }

    let report = cluster.report();
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    eprintln!("{json}");
    if let Some(path) = opts.get("metrics") {
        let mut registry = knowyourphish::obs::MetricsRegistry::new();
        cluster.export_metrics(&mut registry);
        write_creating_dirs(Path::new(path), &registry.render_json())?;
        eprintln!("wrote metrics to {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{cmd_gen, cmd_scan, cmd_serve, COMMANDS, STORE_INSPECT};
    use knowyourphish::cli::{Parsed, ParsedOpts};

    /// Parses `args` against `kyp <command>`'s spec.
    fn opts(command: &str, args: &[&str]) -> ParsedOpts {
        let spec = COMMANDS.iter().find(|s| s.name == command).unwrap();
        let args: Vec<String> = args.iter().map(|&a| a.to_owned()).collect();
        match spec.parse(&args).unwrap() {
            Parsed::Opts(opts) => opts,
            Parsed::Help => panic!("unexpected --help"),
        }
    }

    /// Every path below is missing, so an error that names the option
    /// proves the combination is refused before any file is opened.
    const MISSING: &str = "/nonexistent/kyp-test";

    #[test]
    fn store_scan_refuses_observability_exports() {
        for option in ["--metrics", "--trace"] {
            let err = cmd_scan(&opts(
                "scan",
                &["--model", MISSING, "--data", MISSING, option, MISSING],
            ))
            .unwrap_err();
            assert_eq!(err, format!("{option} needs --page <page.json>"));
        }
    }

    #[test]
    fn gen_refuses_nonsense_scales_and_fault_rates() {
        for (option, value, want) in [
            (
                "--scale",
                "inf",
                "invalid --scale inf (want a finite number > 0 and at most 10)",
            ),
            (
                "--scale",
                "nan",
                "invalid --scale nan (want a finite number > 0 and at most 10)",
            ),
            (
                "--scale",
                "0",
                "invalid --scale 0 (want a finite number > 0 and at most 10)",
            ),
            (
                "--scale",
                "-1",
                "invalid --scale -1 (want a finite number > 0 and at most 10)",
            ),
            (
                "--scale",
                "1e300",
                "invalid --scale 1e300 (want a finite number > 0 and at most 10)",
            ),
            (
                "--scale",
                "1e6",
                "invalid --scale 1e6 (want a finite number > 0 and at most 10)",
            ),
            (
                "--fault-rate",
                "nan",
                "invalid --fault-rate NaN (want a number in [0, 1])",
            ),
            (
                "--fault-rate",
                "inf",
                "invalid --fault-rate inf (want a number in [0, 1])",
            ),
            (
                "--fault-rate",
                "-0.5",
                "invalid --fault-rate -0.5 (want a number in [0, 1])",
            ),
            (
                "--fault-rate",
                "1.5",
                "invalid --fault-rate 1.5 (want a number in [0, 1])",
            ),
        ] {
            let err = cmd_gen(&opts("gen", &["--out", MISSING, option, value])).unwrap_err();
            assert_eq!(err, want);
        }
    }

    #[test]
    fn page_scan_refuses_a_verdicts_file() {
        let err = cmd_scan(&opts(
            "scan",
            &[
                "--model",
                MISSING,
                "--data",
                MISSING,
                "--page",
                MISSING,
                "--verdicts",
                MISSING,
            ],
        ))
        .unwrap_err();
        assert_eq!(err, "--verdicts needs a scan without --page");
    }

    #[test]
    fn stdin_serve_refuses_trace_shape_options() {
        for (option, value) in [
            ("--trace-seed", "5"),
            ("--duplicate-rate", "0.9"),
            ("--arrival-gap-ms", "3"),
        ] {
            let err = cmd_serve(&opts(
                "serve",
                &["--model", MISSING, "--data", MISSING, option, value],
            ))
            .unwrap_err();
            assert_eq!(err, format!("{option} needs --requests <n>"));
        }
    }

    #[test]
    fn every_command_accepts_threads() {
        for spec in COMMANDS {
            assert!(
                spec.args.iter().any(|a| a.name == "threads"),
                "`kyp {}` is missing --threads",
                spec.name
            );
        }
    }

    #[test]
    fn command_names_are_unique() {
        for (i, a) in COMMANDS.iter().enumerate() {
            for b in &COMMANDS[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn option_names_are_unique_within_each_command() {
        for spec in COMMANDS {
            for (i, a) in spec.args.iter().enumerate() {
                for b in &spec.args[i + 1..] {
                    assert_ne!(a.name, b.name, "duplicate option in `kyp {}`", spec.name);
                }
            }
        }
    }

    #[test]
    fn scan_and_serve_export_observability() {
        for name in ["scan", "serve"] {
            let spec = COMMANDS.iter().find(|s| s.name == name).unwrap();
            for needed in ["metrics", "trace"] {
                assert!(
                    spec.args.iter().any(|a| a.name == needed),
                    "`kyp {name}` is missing --{needed}"
                );
            }
        }
    }

    #[test]
    fn help_text_renders_for_every_command() {
        for spec in COMMANDS {
            let help = spec.help_text();
            assert!(help.contains(spec.name));
            assert!(help.contains(spec.summary));
        }
    }

    #[test]
    fn corpus_consumers_read_one_data_directory() {
        for spec in COMMANDS {
            let names: Vec<&str> = spec.args.iter().map(|a| a.name).collect();
            assert!(
                !names.contains(&"from-store") && !names.contains(&"store"),
                "`kyp {}` still names a second corpus format",
                spec.name
            );
        }
        for name in ["train", "cascade-train", "eval", "scan", "serve", "cluster"] {
            let spec = COMMANDS.iter().find(|s| s.name == name).unwrap();
            assert!(
                spec.args.iter().any(|a| a.name == "data"),
                "`kyp {name}` is missing --data"
            );
        }
        let gen = COMMANDS.iter().find(|s| s.name == "gen").unwrap();
        assert!(gen.args.iter().any(|a| a.name == "out"));
    }

    #[test]
    fn cascade_consumers_accept_both_cascade_flags() {
        for name in ["scan", "serve", "cluster"] {
            let spec = COMMANDS.iter().find(|s| s.name == name).unwrap();
            for needed in ["cascade", "cascade-band"] {
                assert!(
                    spec.args.iter().any(|a| a.name == needed),
                    "`kyp {name}` is missing --{needed}"
                );
            }
        }
        let trainer = COMMANDS.iter().find(|s| s.name == "cascade-train").unwrap();
        assert!(trainer.args.iter().any(|a| a.name == "data"));
        assert!(trainer.args.iter().any(|a| a.name == "out"));
    }

    #[test]
    fn store_inspect_takes_the_directory_positionally() {
        let positional = STORE_INSPECT.positional.expect("positional dir");
        assert_eq!(positional.name, "dir");
        assert!(STORE_INSPECT.args.iter().any(|a| a.name == "threads"));
        let help = STORE_INSPECT.help_text();
        assert!(help.contains("kyp store inspect <dir> [options]"), "{help}");
    }
}
