#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! Synthetic dataset generation for the *Know Your Phish* reproduction.
//!
//! The paper evaluates on PhishTank feeds and Intel Security URL lists
//! (Table V) — ephemeral, proprietary data that cannot ship with an
//! offline reproduction. This crate builds the closest synthetic
//! equivalent: a deterministic multilingual web of legitimate sites and
//! phishing kits whose *structural* statistics follow the regularities the
//! paper documents (Sections II-A, III-A, VII-B/C):
//!
//! - legitimate sites register brand-spelling domains, link mostly to
//!   themselves, and reuse their brand terms coherently across text,
//!   title, domain and links;
//! - phishing kits mimic a target's content but are hosted on unrelated
//!   or obfuscated domains, load content from the target, redirect more,
//!   and harvest credentials through input fields;
//! - documented evasions exist in the tail: IP-hosted URLs, minimal-text
//!   pages, image-based pages, typosquatting.
//!
//! Everything is seeded ([`rand_chacha`]) so datasets regenerate bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use kyp_datagen::{CampaignConfig, Corpus};
//!
//! let corpus = Corpus::generate(&CampaignConfig::tiny());
//! assert!(corpus.phish_test.len() > 10);
//! assert!(corpus.leg_train.len() > 50);
//! ```

pub mod brands;
pub mod campaign;
pub mod lexicon;
pub mod phish;
pub(crate) mod portal;
pub mod sites;
pub mod stats;

pub use brands::{Brand, BrandCorpus, Sector};
pub use campaign::{check_scale, CampaignConfig, Corpus, PhishRecord, MAX_SCALE};
pub use lexicon::Language;
pub use phish::{EvasionProfile, HostingStrategy, PhishGenerator, PhishSite};
pub use sites::{SiteGenerator, SiteInfo, SiteKind};
