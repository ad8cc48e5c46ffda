#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! Umbrella crate for the *Know Your Phish* (ICDCS 2016) reproduction.
//!
//! Re-exports every workspace crate under one roof so examples and
//! downstream users can depend on a single package:
//!
//! ```
//! use knowyourphish::url::Url;
//! let u = Url::parse("https://www.amazon.co.uk/ap/signin")?;
//! assert_eq!(u.mld(), Some("amazon"));
//! # Ok::<(), knowyourphish::url::ParseUrlError>(())
//! ```
//!
//! See the individual crates for details:
//! - [`url`]: URL decomposition (FQDN / RDN / mld / FreeURL)
//! - [`text`]: term extraction, term distributions, Hellinger distance
//! - [`html`]: one-pass HTML parser and data-source extraction
//! - [`exec`]: deterministic parallel execution (scoped thread pool)
//! - [`web`]: simulated web, browser/scraper, OCR, domain ranking
//! - [`search`]: search-engine substrate used by target identification
//! - [`datagen`]: synthetic multilingual legitimate/phishing datasets
//! - [`ml`]: gradient boosting, metrics, cross-validation
//! - [`core`]: the paper's contribution — 212 features, detector, target
//!   identification, combined pipeline
//! - [`serve`]: deterministic online scoring service (admission control,
//!   micro-batching, verdict caching, latency accounting)
//! - [`cluster`]: deterministic multi-node serving simulation (consistent
//!   hashing, crash/recovery, failover, per-node backpressure)
//! - [`obs`]: deterministic observability (metrics registry, virtual-clock
//!   tracer, pipeline observer hooks)
//! - [`baselines`]: comparison systems for Table X
//! - [`store`]: persistent columnar corpus & feature store (versioned,
//!   checksummed, streaming)
//!
//! The [`cli`] module holds the typed argument parser shared by every
//! `kyp` subcommand, and [`storeflow`] the generate-once/train-forever
//! pipelines that stream corpora through the [`store`] format.

pub mod cli;
pub mod storeflow;

pub use kyp_baselines as baselines;
pub use kyp_cluster as cluster;
pub use kyp_core as core;
pub use kyp_datagen as datagen;
pub use kyp_exec as exec;
pub use kyp_html as html;
pub use kyp_ml as ml;
pub use kyp_obs as obs;
pub use kyp_search as search;
pub use kyp_serve as serve;
pub use kyp_store as store;
pub use kyp_text as text;
pub use kyp_url as url;
pub use kyp_web as web;
