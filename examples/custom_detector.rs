//! Bringing your own tool: implement [`Detector`] for a custom heuristic,
//! compose it with the two stock tools in a streaming [`Pipeline`], then
//! measure its diversity and fold it into a 2-out-of-3 majority vote.
//!
//! Any detector that is `Clone + Send` slots straight into a pipeline —
//! including across sharded workers. `observe` is the whole obligation:
//! it reads the same borrowed [`EntryRef`] view every stock detector
//! reads, whichever way the entry was fed, and the trait's default
//! `observe_batch_refs` loops over it without allocating. Override the
//! batch method only to amortize per-client work over runs of
//! same-client entries, as the stock detectors do; verdicts must not
//! change.
//!
//! ```text
//! cargo run --release --example custom_detector
//! ```
//!
//! [`Pipeline`]: divscrape_pipeline::Pipeline
//! [`EntryRef`]: divscrape_httplog::EntryRef

use divscrape_detect::{Arcane, Detector, Sentinel, Sessionizer, Verdict};
use divscrape_ensemble::report::{percent, TextTable};
use divscrape_ensemble::{AgreementDiversity, ConfusionMatrix, KOutOfN};
use divscrape_httplog::EntryRef;
use divscrape_pipeline::{Adjudication, PipelineBuilder};
use divscrape_traffic::{generate, ScenarioConfig};

/// A deliberately narrow third opinion: flags clients whose sessions browse
/// offers far faster than any human reads a fare page.
#[derive(Debug, Clone, Default)]
struct OfferVelocity {
    sessions: Sessionizer,
}

impl Detector for OfferVelocity {
    fn name(&self) -> &str {
        "offer-velocity"
    }

    fn observe(&mut self, entry: &EntryRef<'_>) -> Verdict {
        let f = self.sessions.observe(entry);
        // ≥ 30 offer pages at a mean pace under 4 s/request is not a person
        // comparing fares.
        let velocity = f.offer_hits >= 30 && f.mean_gap_secs() < 4.0;
        Verdict::new(
            velocity,
            f.offer_hits as f32 / f.mean_gap_secs().max(0.1) as f32,
        )
    }

    fn reset(&mut self) {
        self.sessions.reset();
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let log = generate(&ScenarioConfig::small(2018))?;

    // All three tools — two stock, one custom — run inside one streaming
    // pipeline; the drained report hands back each member's alert vector.
    let build = || {
        PipelineBuilder::new()
            .detector(Sentinel::stock())
            .detector(Arcane::stock())
            .detector(OfferVelocity::default())
            .adjudication(Adjudication::k_of_n(2)) // the majority vote, online
            .build()
            .map_err(|e| e.to_string())
    };
    let mut pipeline = build()?;
    for chunk in log.entries().chunks(1024) {
        pipeline.push_batch(chunk); // a live deployment would feed as logs arrive
    }
    let streamed = pipeline.drain();
    let (sentinel, arcane, custom) = match &streamed.members[..] {
        [s, a, c] => (s.clone(), a.clone(), c.clone()),
        _ => unreachable!("three members composed"),
    };

    // How diverse is the newcomer against each incumbent?
    let mut t = TextTable::new("Pairwise agreement diversity");
    t.columns(&["Pair", "Yule Q", "Disagreement", "Kappa"]);
    for (name, a, b) in [
        ("sentinel vs arcane", &sentinel, &arcane),
        ("sentinel vs offer-velocity", &sentinel, &custom),
        ("arcane vs offer-velocity", &arcane, &custom),
    ] {
        let d = AgreementDiversity::of(a, b);
        t.row_owned(vec![
            name.to_owned(),
            format!("{:.4}", d.yule_q),
            percent(d.disagreement),
            format!("{:.4}", d.kappa),
        ]);
    }
    println!("{}", t.render());

    // Three tools, majority vote.
    let mut t = TextTable::new("Schemes over three tools");
    t.columns(&["Scheme", "Sensitivity", "Specificity"]);
    for (k, label) in [(1u32, "1oo3"), (2, "2oo3 majority"), (3, "3oo3")] {
        let rule = KOutOfN::new(k, 3).expect("valid");
        let combined = rule.apply(&[&sentinel, &arcane, &custom]);
        let cm = ConfusionMatrix::of(&combined, log.truth());
        t.row_owned(vec![
            label.to_owned(),
            percent(cm.sensitivity()),
            percent(cm.specificity()),
        ]);
    }
    println!("{}", t.render());

    // The pipeline adjudicated 2oo3 online while streaming; the offline
    // rule over the member vectors agrees bit for bit.
    let offline = KOutOfN::new(2, 3)
        .expect("valid")
        .apply(&[&sentinel, &arcane, &custom]);
    assert_eq!(streamed.combined.to_bools(), offline.to_bools());

    // Fed as raw lines instead, the same three tools see the same views
    // and must reach the same verdicts.
    let mut from_lines = build()?;
    for entry in log.entries() {
        from_lines.push_line(&entry.to_string())?;
    }
    assert_eq!(
        from_lines.drain().combined.to_bools(),
        streamed.combined.to_bools()
    );

    println!("A narrow third tool barely moves 1oo3 but hardens the majority vote:\nits alerts land almost entirely inside the bot population.");
    Ok(())
}
