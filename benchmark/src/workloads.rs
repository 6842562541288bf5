//! The four workloads: which detectors are composed, on which traffic,
//! through which runtime — and why each one exists.

use divscrape_detect::baselines::{RateLimiter, SignatureOnly};
use divscrape_detect::{Arcane, Sentinel, TrapDetector};
use divscrape_pipeline::{Adjudication, PipelineBuilder, PipelineDetector, TriagePolicy};
use divscrape_traffic::{generate, ScenarioConfig};

/// The seed the checked-in goldens under `workloads/` were recorded for.
pub const DEFAULT_SEED: u64 = 2018;

/// Open-loop rate of the paced phase, lines per second.
pub const PACED_RATE_PER_S: u64 = 50_000;

/// An in-tree ensemble member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Member {
    Sentinel,
    Arcane,
    Trap,
    RateLimiter,
    SignatureOnly,
}

impl Member {
    /// Every member, in the five-detector composition order.
    pub const ALL: [Member; 5] = [
        Member::Sentinel,
        Member::Arcane,
        Member::Trap,
        Member::RateLimiter,
        Member::SignatureOnly,
    ];

    /// The span the traced run records around calls into this member,
    /// and the prefix of its `detect.<member>.*` metrics.
    pub fn span_name(self) -> &'static str {
        match self {
            Member::Sentinel => "detect.sentinel",
            Member::Arcane => "detect.arcane",
            Member::Trap => "detect.trap",
            Member::RateLimiter => "detect.rate_limiter",
            Member::SignatureOnly => "detect.signature_only",
        }
    }

    /// A fresh stock instance.
    pub fn boxed(self) -> Box<dyn PipelineDetector> {
        match self {
            Member::Sentinel => Box::new(Sentinel::stock()),
            Member::Arcane => Box::new(Arcane::stock()),
            Member::Trap => Box::new(TrapDetector::default()),
            Member::RateLimiter => Box::new(RateLimiter::default()),
            Member::SignatureOnly => Box::new(SignatureOnly::stock()),
        }
    }
}

const SPINE: [Member; 2] = [Member::Sentinel, Member::Arcane];

/// Which generated traffic a workload replays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// The paper's population mix (`ScenarioConfig::with_target`).
    Paper,
    /// `ScenarioConfig::benign_heavy` at this suspicious share.
    BenignHeavy(f64),
}

/// The second route a run's alerts are checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReferenceRoute {
    /// The same composition at `chunk_capacity(257)`: chunking is
    /// verdict-neutral, so any difference is an engine bug.
    Chunk257,
    /// The same members with triage off, as a bare pipeline: the
    /// triage and sharding bit-identity pins.
    TriageOff,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line on why the workload exists (mirrored in BENCHMARK.json).
    pub why: &'static str,
    pub members: &'static [Member],
    pub triage: bool,
    /// Run through a one-tenant, one-shard `ServicePlane` with a
    /// `StoreSink` instead of a bare pipeline.
    pub service: bool,
    pub traffic: Traffic,
    pub reference: ReferenceRoute,
    /// Yardstick repeats per bracket side — fixed per workload, never
    /// adapted at run time, and sized so one side lasts at least a
    /// quarter of the pass it brackets (one repeat scans the closed-loop
    /// lines once: ~75 ms at full size on the machine the issue was
    /// sized on, against passes of ~0.12 / 0.33 / 0.13 / 0.9 s).
    pub yardstick_reps: u32,
}

/// The workload ladder, in the order the repeat check alternates them.
pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "spine2_paper",
        why: "the paper's two tools on the paper's mix: both members borrowed, so parse and engine carry the cost",
        members: &SPINE,
        triage: false,
        service: false,
        traffic: Traffic::Paper,
        reference: ReferenceRoute::Chunk257,
        yardstick_reps: 1,
    },
    Workload {
        name: "ensemble5_mixed",
        why: "five detectors, triage off, 10% suspicious: the materializing members carry the cost, parse under 15%",
        members: &Member::ALL,
        triage: false,
        service: false,
        traffic: Traffic::BenignHeavy(0.10),
        reference: ReferenceRoute::Chunk257,
        yardstick_reps: 2,
    },
    Workload {
        name: "triage_benign",
        why: "five detectors behind FastTriage at 1% suspicious: ~92% suppressed, so triage and parse carry the cost",
        members: &Member::ALL,
        triage: true,
        service: false,
        traffic: Traffic::BenignHeavy(0.01),
        reference: ReferenceRoute::TriageOff,
        yardstick_reps: 1,
    },
    Workload {
        name: "service_durable",
        why: "service plane + triage + StoreSink at 50% suspicious: hand-off, replay and store append on the blocking path",
        members: &Member::ALL,
        triage: true,
        service: true,
        traffic: Traffic::BenignHeavy(0.50),
        reference: ReferenceRoute::TriageOff,
        yardstick_reps: 4,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    fn members_builder(&self) -> PipelineBuilder {
        self.members
            .iter()
            .fold(PipelineBuilder::new(), |b, m| b.boxed_detector(m.boxed()))
            .adjudication(Adjudication::k_of_n(1))
            .workers(1)
    }

    /// The workload's pipeline composition: members, 1-out-of-n,
    /// inline on the caller (`workers(1)`), triage if the workload has it.
    pub fn builder(&self) -> PipelineBuilder {
        let builder = self.members_builder();
        if self.triage {
            builder.triage(TriagePolicy::fast())
        } else {
            builder
        }
    }

    /// The cross-check route's composition (see [`ReferenceRoute`]).
    pub fn reference_builder(&self) -> PipelineBuilder {
        match self.reference {
            ReferenceRoute::Chunk257 => self.builder().chunk_capacity(257),
            ReferenceRoute::TriageOff => self.members_builder(),
        }
    }

    /// Generates the workload's log for `seed` and renders it to CLF
    /// lines — the only form in which the program ever sees it.
    pub fn lines(&self, seed: u64, total: usize) -> Result<Vec<String>, String> {
        let config = match self.traffic {
            Traffic::Paper => ScenarioConfig::with_target(seed, total as u64),
            Traffic::BenignHeavy(share) => ScenarioConfig::benign_heavy(seed, total as u64, share),
        };
        let log = generate(&config)?;
        Ok(log.entries().iter().map(ToString::to_string).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(std::ptr::eq(Workload::by_name(w.name).unwrap(), w));
            assert!(WORKLOADS[..i].iter().all(|other| other.name != w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn the_same_seed_gives_the_same_lines_and_another_seed_others() {
        let w = &WORKLOADS[1];
        let a = w.lines(7, 600).unwrap();
        assert_eq!(a, w.lines(7, 600).unwrap());
        assert_ne!(a, w.lines(8, 600).unwrap());
        assert_eq!(a.len(), 600);
    }
}
