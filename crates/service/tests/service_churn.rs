//! Tenant churn: tenants join and leave a live plane, optionally while a
//! shared global eviction budget is re-apportioned — and isolation
//! still holds.
//!
//! The `--ignored` soak is the full elasticity scenario: interleaved
//! traffic, membership churn, budget rebalancing by live-client share —
//! asserting (a) **no cross-tenant verdict drift** (every tenant's
//! verdicts are bit-identical to a standalone pipeline given the same
//! budget schedule, so other tenants influence it through the declared
//! budget channel only) and (b) the **aggregate live-client bound** (the
//! service-wide footprint stays within the budget at every quiesce
//! point).

use std::collections::HashMap;

use divscrape_detect::{Arcane, EvictionConfig, Sentinel, TenantId};
use divscrape_httplog::LogEntry;
use divscrape_pipeline::{Adjudication, Pipeline, PipelineBuilder, PipelineReport};
use divscrape_service::{shard_of, IngestOutcome, ServicePlane};
use divscrape_traffic::{generate, LabelledLog, ScenarioConfig};

fn two_tool(workers: usize) -> PipelineBuilder {
    PipelineBuilder::new()
        .detector(Sentinel::stock())
        .detector(Arcane::stock())
        .adjudication(Adjudication::k_of_n(1))
        .workers(workers)
        .chunk_capacity(257)
}

/// The reference: a standalone pipeline over only the entries that
/// `shard_of` routes to shard `k`.
fn standalone_shard(log: &[LogEntry], shards: usize, k: usize) -> PipelineReport {
    let mut pipeline = two_tool(2).build().unwrap();
    for entry in log {
        if shard_of(&entry.to_string(), shards) == k {
            pipeline.push(entry.clone());
        }
    }
    pipeline.drain()
}

fn assert_identical(case: &str, got: &PipelineReport, want: &PipelineReport) {
    assert_eq!(got.requests(), want.requests(), "{case}: entry count");
    assert_eq!(
        got.combined.to_bools(),
        want.combined.to_bools(),
        "{case}: combined alerts drifted"
    );
    for (g, w) in got.members.iter().zip(&want.members) {
        assert_eq!(g.to_bools(), w.to_bools(), "{case}: member {}", g.name());
    }
}

fn assert_tenant_identical(case: &str, got: &[PipelineReport], log: &LabelledLog) {
    let shards = got.len();
    for (k, report) in got.iter().enumerate() {
        assert_identical(
            &format!("{case} shard {k}/{shards}"),
            report,
            &standalone_shard(log.entries(), shards, k),
        );
    }
    let total: usize = got.iter().map(|r| r.requests()).sum();
    assert_eq!(total, log.len(), "{case}: the shards cover the stream");
}

fn feed(plane: &ServicePlane, tenant: &TenantId, entry: &LogEntry) {
    assert_eq!(
        plane.ingest(tenant, entry.to_string()),
        IngestOutcome::Routed
    );
}

/// Tenants join and leave mid-stream (no shared budget): every tenant's
/// per-shard output is exactly its standalone run, unmoved by the churn
/// around it.
#[test]
fn membership_churn_does_not_disturb_the_other_tenants() {
    let log_a = generate(&ScenarioConfig::tiny(81)).unwrap();
    let log_b = generate(&ScenarioConfig::tiny(82)).unwrap();
    let log_c = generate(&ScenarioConfig::tiny(83)).unwrap();
    let (a, b, c) = (TenantId::new("a"), TenantId::new("b"), TenantId::new("c"));

    for shards in [1usize, 4] {
        let plane = ServicePlane::builder()
            .tenant(a.clone(), shards, |_, _| two_tool(2))
            .tenant(b.clone(), shards, |_, _| two_tool(2))
            .build()
            .unwrap();

        // Phase 1: a's first half interleaved with all of b.
        let split = log_a.len() / 2;
        let mut b_iter = log_b.entries().iter();
        for entry in &log_a.entries()[..split] {
            feed(&plane, &a, entry);
            if let Some(be) = b_iter.next() {
                feed(&plane, &b, be);
            }
        }
        for be in b_iter {
            feed(&plane, &b, be);
        }

        // Churn: b leaves (drained on the way out), c joins.
        let b_reports = plane.leave(&b).unwrap();
        plane.join_with(&c, shards, |_, _| two_tool(2)).unwrap();

        // Phase 2: a's second half interleaved with all of c.
        let mut c_iter = log_c.entries().iter();
        for entry in &log_a.entries()[split..] {
            feed(&plane, &a, entry);
            if let Some(ce) = c_iter.next() {
                feed(&plane, &c, ce);
            }
        }
        for ce in c_iter {
            feed(&plane, &c, ce);
        }
        let reports: HashMap<TenantId, Vec<PipelineReport>> =
            plane.drain_all().into_iter().collect();
        assert_eq!(plane.tenants(), vec![a.clone(), c.clone()]);

        // a's stream spans the churn untouched; b and c match standalone
        // runs of exactly what they fed.
        assert_tenant_identical(
            &format!("shards={shards}: tenant a across churn"),
            &reports[&a],
            &log_a,
        );
        assert_tenant_identical(
            &format!("shards={shards}: departed tenant b"),
            &b_reports,
            &log_b,
        );
        assert_tenant_identical(
            &format!("shards={shards}: joined tenant c"),
            &reports[&c],
            &log_c,
        );
    }
}

/// The full elasticity soak (`--ignored`): tenants join and leave while
/// one global budget is re-apportioned by live-client share at every
/// round boundary.
///
/// * **No cross-tenant verdict drift:** each tenant's plane output is
///   bit-identical to a standalone pipeline fed the same slices with
///   the same recorded budget schedule applied at the same positions.
/// * **Aggregate bound:** at every round boundary the apportioned
///   budgets sum to exactly the global budget and the plane-wide
///   live-client footprint stays at or under it.
///
/// Every tenant runs one shard: the plane reports allotments per
/// tenant, so with one shard the recorded schedule is exactly what that
/// shard's pipeline was handed (sharded bit-identity itself is pinned
/// above and by `service_equivalence`).
#[test]
#[ignore = "multi-round churn soak; minutes in debug builds"]
fn shared_budget_rebalances_across_tenant_churn() {
    // Sized so the caps bind: the `small` logs keep only a handful of
    // clients live per replica, and under a roomy budget every schedule
    // replays identically — the drift check would pin nothing.
    const BUDGET: usize = 12;
    const WORKERS: usize = 2;
    let compose = || two_tool(WORKERS).eviction(EvictionConfig::ttl(3_600));

    let log_a = generate(&ScenarioConfig::small(91)).unwrap();
    let log_b = generate(&ScenarioConfig::small(92)).unwrap();
    let log_c = generate(&ScenarioConfig::small(93)).unwrap();
    let (a, b, c) = (TenantId::new("a"), TenantId::new("b"), TenantId::new("c"));

    // Feed plan: a is present for all 4 rounds; b leaves after round 1;
    // c joins for rounds 2..3.
    let slices = |log: &LabelledLog, n: usize| -> Vec<Vec<LogEntry>> {
        log.entries()
            .chunks(log.len().div_ceil(n))
            .map(<[LogEntry]>::to_vec)
            .collect()
    };
    let a_slices = slices(&log_a, 4);
    let b_slices = slices(&log_b, 2);
    let c_slices = slices(&log_c, 2);

    let plane = ServicePlane::builder()
        .tenant(a.clone(), 1, move |_, _| compose())
        .tenant(b.clone(), 1, move |_, _| compose())
        .global_eviction_budget(BUDGET)
        .build()
        .unwrap();

    // Per-tenant recordings: the budget in effect for each fed slice,
    // and the verdicts accumulated across round drains.
    let mut schedule: HashMap<TenantId, Vec<usize>> = HashMap::new();
    let mut verdicts: HashMap<TenantId, Vec<Vec<bool>>> = HashMap::new();
    let rebalance = || -> HashMap<TenantId, usize> {
        let applied = plane.rebalance_eviction();
        let granted: usize = applied.iter().map(|(_, cap)| cap).sum();
        assert_eq!(granted, BUDGET, "the whole budget is granted: {applied:?}");
        assert!(
            applied.iter().all(|(_, cap)| *cap >= WORKERS),
            "every tenant keeps its floor: {applied:?}"
        );
        applied.into_iter().collect()
    };
    let mut caps = rebalance();

    for round in 0..4usize {
        // Membership changes happen at round boundaries, while every
        // shard is drained (a quiesce point).
        if round == 2 {
            let parting = plane.leave(&b).unwrap();
            assert_eq!(parting[0].requests(), 0, "b was drained at the boundary");
            plane.join_with(&c, 1, move |_, _| compose()).unwrap();
            caps = rebalance();
        }

        // This round's feed set.
        let mut feeds: Vec<(&TenantId, &[LogEntry])> = vec![(&a, &a_slices[round])];
        if round < 2 {
            feeds.push((&b, &b_slices[round]));
        } else {
            feeds.push((&c, &c_slices[round - 2]));
        }

        // Record the budget each tenant runs this round under, then
        // feed the slices interleaved entry by entry.
        for (tenant, _) in &feeds {
            schedule
                .entry((*tenant).clone())
                .or_default()
                .push(caps[tenant]);
        }
        let longest = feeds.iter().map(|(_, s)| s.len()).max().unwrap();
        for i in 0..longest {
            for (tenant, slice) in &feeds {
                if let Some(entry) = slice.get(i) {
                    feed(&plane, tenant, entry);
                }
            }
        }

        // Round boundary: drain, check the aggregate bound, rebalance.
        let reports: HashMap<TenantId, Vec<PipelineReport>> =
            plane.drain_all().into_iter().collect();
        for (tenant, slice) in &feeds {
            let report = &reports[*tenant][0];
            assert_eq!(report.requests(), slice.len());
            let acc = verdicts
                .entry((*tenant).clone())
                .or_insert_with(|| vec![Vec::new(); 1 + report.members.len()]);
            acc[0].extend(report.combined.to_bools());
            for (m, member) in report.members.iter().enumerate() {
                acc[1 + m].extend(member.to_bools());
            }
        }
        let stats = plane.stats();
        assert_eq!(stats.eviction_budget, Some(BUDGET));
        assert!(
            stats.live_clients_aggregate <= BUDGET,
            "round {round}: aggregate footprint {} exceeds the budget {BUDGET}",
            stats.live_clients_aggregate
        );
        caps = rebalance();
    }

    // Replay every tenant standalone under its recorded budget
    // schedule: bit-identical verdicts prove the other tenants only
    // ever reached it through the declared budget channel.
    for (tenant, tenant_slices) in [(&a, &a_slices), (&b, &b_slices), (&c, &c_slices)] {
        let mut pipeline: Pipeline = compose().build().unwrap();
        let mut expected: Vec<Vec<bool>> = Vec::new();
        for (slice, cap) in tenant_slices.iter().zip(&schedule[tenant]) {
            pipeline.set_eviction_global_capacity(*cap);
            pipeline.push_batch(slice);
            let report = pipeline.drain();
            if expected.is_empty() {
                expected = vec![Vec::new(); 1 + report.members.len()];
            }
            expected[0].extend(report.combined.to_bools());
            for (m, member) in report.members.iter().enumerate() {
                expected[1 + m].extend(member.to_bools());
            }
        }
        assert_eq!(
            verdicts[tenant], expected,
            "tenant {tenant}: verdicts drifted from the standalone replay"
        );
    }
}
