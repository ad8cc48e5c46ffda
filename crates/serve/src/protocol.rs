//! The service's newline-delimited json line protocol.
//!
//! One [`ServeRequest`] in, one [`ServeResponse`] out, both a single json
//! object per line. `kyp serve` speaks exactly this over stdin/stdout; the
//! library API exchanges the same types directly.

use kyp_obs::VerdictStage;
use serde::{Deserialize, Serialize};

/// One scoring request.
///
/// `arrival_ms` places the request on the service's virtual timeline;
/// arrivals must be non-decreasing (the service clamps regressions to the
/// previous arrival). `id` is echoed back so callers can correlate
/// out-of-band.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The URL to score.
    pub url: String,
    /// Arrival time on the service's virtual clock, in milliseconds.
    pub arrival_ms: u64,
}

/// What the service concluded about one request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServeOutcome {
    /// The pipeline produced a verdict.
    Verdict {
        /// Verdict kind: `legitimate`, `confirmed_legitimate`, `phish`
        /// or `suspicious`.
        kind: String,
        /// Detector confidence.
        score: f64,
        /// Ranked target mlds (phish verdicts only).
        targets: Vec<String>,
    },
    /// The page could not be fetched at all.
    Unfetchable {
        /// Terminal failure cause, e.g. `not_found`, `circuit_open`.
        cause: String,
    },
    /// Admission control rejected the request.
    Shed {
        /// Why it was rejected, e.g. `queue_full`.
        reason: String,
    },
}

impl ServeOutcome {
    /// Maps a pipeline verdict onto the wire outcome.
    pub fn from_verdict(verdict: &kyp_core::PipelineVerdict) -> Self {
        let targets = match verdict {
            kyp_core::PipelineVerdict::Phish { candidates, .. } => {
                candidates.iter().map(|c| c.mld.clone()).collect()
            }
            _ => Vec::new(),
        };
        ServeOutcome::Verdict {
            kind: verdict.kind().name().to_owned(),
            score: verdict.score(),
            targets,
        }
    }
}

/// Where the response's verdict came from, cache-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheState {
    /// Served from a fresh verdict-cache entry.
    Hit,
    /// Classified and inserted into the cache.
    Miss,
    /// The cache is disabled for this service.
    Disabled,
    /// The request never reached classification (shed / unfetchable).
    Skipped,
}

/// One scored (or rejected) request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// The request's correlation id.
    pub id: u64,
    /// The request's URL, echoed back.
    pub url: String,
    /// What the service concluded.
    pub outcome: ServeOutcome,
    /// Verdict-cache involvement.
    pub cache: CacheState,
    /// Whether the page was only partially captured.
    pub degraded: bool,
    /// Virtual milliseconds from arrival to completion (0 for shed).
    pub latency_ms: u64,
    /// Completion time on the service's virtual clock.
    pub completed_ms: u64,
    /// Which cascade stage decided the verdict. A verdict-cache hit keeps
    /// the stage that originally *decided* it ([`VerdictStage::Full`] —
    /// the serve cache only stores full-pipeline verdicts), so cache-on
    /// and cache-off runs stay byte-identical.
    pub stage: VerdictStage,
}

// Hand-written (de)serialization: the stage field is serialized only when
// it differs from [`VerdictStage::Full`], so every pre-cascade output —
// and every cascade-off run — keeps its exact bytes.
impl Serialize for ServeResponse {
    fn to_json_value(&self) -> serde::Value {
        let mut fields = vec![
            ("id".to_owned(), self.id.to_json_value()),
            ("url".to_owned(), self.url.to_json_value()),
            ("outcome".to_owned(), self.outcome.to_json_value()),
            ("cache".to_owned(), self.cache.to_json_value()),
            ("degraded".to_owned(), self.degraded.to_json_value()),
            ("latency_ms".to_owned(), self.latency_ms.to_json_value()),
            ("completed_ms".to_owned(), self.completed_ms.to_json_value()),
        ];
        if self.stage != VerdictStage::Full {
            fields.push((
                "stage".to_owned(),
                serde::Value::String(self.stage.name().to_owned()),
            ));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for ServeResponse {
    fn from_json_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let fields = value
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for struct ServeResponse"))?;
        let field = |name: &str| serde::obj_get(fields, name);
        let stage = match field("stage") {
            serde::Value::Null => VerdictStage::Full,
            v => {
                let name = String::from_json_value(v)
                    .map_err(|e| serde::Error::custom(format!("ServeResponse.stage: {e}")))?;
                VerdictStage::parse(&name).ok_or_else(|| {
                    serde::Error::custom(format!("ServeResponse.stage: unknown stage {name:?}"))
                })?
            }
        };
        Ok(ServeResponse {
            id: Deserialize::from_json_value(field("id"))
                .map_err(|e| serde::Error::custom(format!("ServeResponse.id: {e}")))?,
            url: Deserialize::from_json_value(field("url"))
                .map_err(|e| serde::Error::custom(format!("ServeResponse.url: {e}")))?,
            outcome: Deserialize::from_json_value(field("outcome"))
                .map_err(|e| serde::Error::custom(format!("ServeResponse.outcome: {e}")))?,
            cache: Deserialize::from_json_value(field("cache"))
                .map_err(|e| serde::Error::custom(format!("ServeResponse.cache: {e}")))?,
            degraded: Deserialize::from_json_value(field("degraded"))
                .map_err(|e| serde::Error::custom(format!("ServeResponse.degraded: {e}")))?,
            latency_ms: Deserialize::from_json_value(field("latency_ms"))
                .map_err(|e| serde::Error::custom(format!("ServeResponse.latency_ms: {e}")))?,
            completed_ms: Deserialize::from_json_value(field("completed_ms"))
                .map_err(|e| serde::Error::custom(format!("ServeResponse.completed_ms: {e}")))?,
            stage,
        })
    }
}

impl ServeResponse {
    /// An answer that never reaches a batch — a URL-stage verdict, a shed
    /// or a router-level failure: no cache involvement, not degraded,
    /// zero latency, completed at `completed_ms` and decided by `stage`.
    pub fn immediate(
        id: u64,
        url: String,
        outcome: ServeOutcome,
        completed_ms: u64,
        stage: VerdictStage,
    ) -> Self {
        ServeResponse {
            id,
            url,
            outcome,
            cache: CacheState::Skipped,
            degraded: false,
            latency_ms: 0,
            completed_ms,
            stage,
        }
    }

    /// The timing- and cache-independent projection of this response:
    /// request identity plus verdict only.
    ///
    /// Two runs of the same trace must produce byte-identical sequences
    /// of these lines whatever the thread count and whether the verdict
    /// cache is enabled — the determinism contract `kyp-serve` inherits
    /// from the execution layer. (Latency and cache state legitimately
    /// differ between cache-on and cache-off runs, so they are excluded.)
    pub fn verdict_line(&self) -> String {
        // kyp-lint: allow(P01) — serializing a field-only enum is infallible; a Result here would infect the whole protocol surface
        let outcome = serde_json::to_string(&self.outcome).expect("serialize outcome");
        let mut line = format!(
            "{} {} {} degraded={}",
            self.id, self.url, outcome, self.degraded
        );
        if self.stage != VerdictStage::Full {
            line.push_str(" stage=");
            line.push_str(self.stage.name());
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_through_json() {
        let req = ServeRequest {
            id: 7,
            url: "http://example.com/a".into(),
            arrival_ms: 120,
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: ServeRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn response_roundtrips_through_json() {
        let resp = ServeResponse {
            id: 9,
            url: "http://example.com/b".into(),
            outcome: ServeOutcome::Verdict {
                kind: "phish".into(),
                score: 0.93,
                targets: vec!["paypal".into()],
            },
            cache: CacheState::Miss,
            degraded: false,
            latency_ms: 14,
            completed_ms: 210,
            stage: VerdictStage::Full,
        };
        let json = serde_json::to_string(&resp).unwrap();
        assert!(
            !json.contains("stage"),
            "full-stage responses keep their pre-cascade bytes: {json}"
        );
        let back: ServeResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back, resp);
        // A URL-only verdict carries its stage on the wire and back.
        let tagged = ServeResponse {
            stage: VerdictStage::UrlOnly,
            ..resp
        };
        let json = serde_json::to_string(&tagged).unwrap();
        assert!(json.contains("\"stage\":\"url_only\""), "{json}");
        let back: ServeResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tagged);
    }

    #[test]
    fn verdict_line_excludes_timing_and_cache_state() {
        let mut resp = ServeResponse {
            id: 1,
            url: "http://x.com/".into(),
            outcome: ServeOutcome::Shed {
                reason: "queue_full".into(),
            },
            cache: CacheState::Skipped,
            degraded: false,
            latency_ms: 5,
            completed_ms: 100,
            stage: VerdictStage::Full,
        };
        let line = resp.verdict_line();
        resp.latency_ms = 99;
        resp.completed_ms = 999;
        resp.cache = CacheState::Hit;
        assert_eq!(line, resp.verdict_line());
        assert!(!line.contains("stage="), "full stage stays invisible");
    }

    #[test]
    fn verdict_line_tags_non_full_stages() {
        let resp = ServeResponse {
            id: 2,
            url: "http://y.com/".into(),
            outcome: ServeOutcome::Verdict {
                kind: "suspicious".into(),
                score: 0.97,
                targets: Vec::new(),
            },
            cache: CacheState::Skipped,
            degraded: false,
            latency_ms: 0,
            completed_ms: 40,
            stage: VerdictStage::UrlOnly,
        };
        assert!(resp.verdict_line().ends_with(" stage=url_only"));
    }
}
