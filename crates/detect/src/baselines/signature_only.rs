//! The signature-only baseline.

use divscrape_httplog::EntryRef;

use crate::sentinel::SignatureEngine;
use crate::{Detector, Verdict};

/// Alerts purely on user-agent signatures — no behaviour, no reputation.
///
/// Equivalent to running [`Sentinel`](crate::Sentinel) with every signal
/// but the signature engine ablated, packaged as its own baseline because
/// UA blocklisting is what most off-the-shelf web servers offer natively.
#[derive(Debug, Clone, Default)]
pub struct SignatureOnly {
    engine: SignatureEngine,
}

impl SignatureOnly {
    /// Uses the stock signature rules.
    pub fn stock() -> Self {
        Self {
            engine: SignatureEngine::stock(),
        }
    }

    /// Uses a custom engine.
    pub fn with_engine(engine: SignatureEngine) -> Self {
        Self { engine }
    }
}

impl Detector for SignatureOnly {
    fn name(&self) -> &str {
        "signature-only"
    }

    fn observe(&mut self, entry: &EntryRef<'_>) -> Verdict {
        if self
            .engine
            .matches_parts(entry.agent_family(), entry.ua_str())
        {
            Verdict::ALERT
        } else {
            Verdict::CLEAR
        }
    }

    fn observe_batch_refs(&mut self, entries: &[EntryRef<'_>], out: &mut Vec<Verdict>) {
        out.reserve(entries.len());
        for run in crate::detector::client_runs(entries) {
            // The verdict is a pure function of the user agent, so one
            // signature scan covers the whole client run.
            let first = &run[0];
            let verdict = if self
                .engine
                .matches_parts(first.agent_family(), first.ua_str())
            {
                Verdict::ALERT
            } else {
                Verdict::CLEAR
            };
            out.extend(std::iter::repeat_n(verdict, run.len()));
        }
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::run_alerts;
    use divscrape_traffic::{generate, ActorClass, ScenarioConfig};

    #[test]
    fn catches_toolkit_bots_and_misses_spoofed_browsers() {
        let log = generate(&ScenarioConfig::small(4)).unwrap();
        let mut det = SignatureOnly::stock();
        let alerts = run_alerts(&mut det, log.entries());

        let mut tool_caught = 0u32;
        let mut tool_total = 0u32;
        let mut stealth_caught = 0u32;
        let mut stealth_total = 0u32;
        for ((_, truth), alert) in log.iter().zip(&alerts) {
            match truth.actor() {
                ActorClass::PriceScraperBot => {
                    tool_total += 1;
                    tool_caught += u32::from(*alert);
                }
                ActorClass::StealthScraper => {
                    stealth_total += 1;
                    stealth_caught += u32::from(*alert);
                }
                _ => {}
            }
        }
        // The toolkit and spoofed campaigns are signature-visible; the
        // residential campaign and stealth scrapers are not.
        assert!(
            tool_caught as f64 / tool_total as f64 > 0.5,
            "caught {tool_caught}/{tool_total} botnet requests"
        );
        assert_eq!(stealth_caught, 0, "of {stealth_total} stealth requests");
    }

    #[test]
    fn never_alerts_on_humans() {
        let log = generate(&ScenarioConfig::small(4)).unwrap();
        let mut det = SignatureOnly::stock();
        let alerts = run_alerts(&mut det, log.entries());
        for ((_, truth), alert) in log.iter().zip(&alerts) {
            if truth.actor() == ActorClass::Human {
                assert!(!alert);
            }
        }
    }
}
