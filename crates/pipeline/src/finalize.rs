//! Chunk finalization: what the driver does with a finished chunk's
//! verdict columns — adjudication, sink delivery, the replayed-history
//! patch, and the online recalibration and threshold-control observers.

use std::sync::Arc;
use std::time::Instant;

use divscrape_detect::Verdict;
use divscrape_ensemble::{AlertVector, WeightedVote};
use divscrape_httplog::{EntryBlock, LogEntry};

use crate::builder::Rule;
use crate::engine::{AppliedRuleUpdate, PendingChunk, Pipeline, RuleProvenance};
use crate::sink::{Alert, ScoredEntry};
use crate::store_sink::RecordPolicy;
use crate::triage::RetroVerdict;

impl Pipeline {
    /// Adjudicates one finished chunk, fires sinks, feeds the online
    /// recalibrator and accumulates the outcome. Runs on the driver
    /// thread, strictly in feed order — which is what makes runtime rule
    /// installs and recalibrator updates deterministic functions of the
    /// stream position, independent of worker count.
    pub(crate) fn finalize(&mut self, seq: u64, pending: PendingChunk) {
        // Rule installs gate on the chunk sequence: anything queued at
        // or before this chunk takes effect now, before adjudication —
        // never mid-chunk.
        self.install_due_rules(seq);
        let PendingChunk {
            block,
            mut columns,
            retro,
            ..
        } = pending;
        let n = block.len();
        let n_detectors = self.names.len();

        // Replayed-history verdicts. An entry replayed from **this**
        // chunk (suppressed earlier in the same chunk as its client's
        // escalation) gets its verdict row patched in before
        // adjudication — it then flows through sinks and accumulation
        // exactly like a live entry. Entries from already-finalized
        // chunks are re-adjudicated below, before this chunk's sinks
        // fire, so late alerts come out in feed order.
        let base = self.finalized;
        let mut early: Vec<RetroVerdict> = Vec::new();
        for rv in retro {
            if rv.index >= base {
                let pos = (rv.index - base) as usize;
                for (col, v) in columns.iter_mut().zip(&rv.verdicts) {
                    col[pos] = *v;
                }
            } else {
                early.push(rv);
            }
        }
        if !early.is_empty() {
            early.sort_by_key(|rv| rv.index);
            self.apply_retro_verdicts(early);
        }

        // Online adjudication, reusing the ensemble rules verbatim.
        let adjudicate_started = Instant::now();
        let member_bools: Vec<Vec<bool>> = columns
            .iter()
            .map(|col| col.iter().map(|v| v.alert).collect())
            .collect();
        let vectors: Vec<AlertVector> = member_bools
            .iter()
            .zip(&self.names)
            .map(|(bools, name)| AlertVector::from_bools(name, bools))
            .collect();
        let refs: Vec<&AlertVector> = vectors.iter().collect();
        let combined = match &self.rule {
            Rule::KOutOfN(rule) => rule.apply(&refs),
            Rule::Weighted(rule) => rule.apply(&refs),
        };
        let combined_bools = combined.to_bools();
        self.stats.adjudicate_busy += adjudicate_started.elapsed();
        self.stats.alerts += combined_bools.iter().filter(|alert| **alert).count() as u64;

        if !self.sinks.is_empty() {
            let sink_started = Instant::now();
            // Cheap Arc clone: frees `self.sinks` for the mutable loop.
            let tenant = self.tenant.clone();
            // Sinks that asked to be shown finalized entries (the
            // durable store), each with which ones.
            let entry_sinks: Vec<(usize, RecordPolicy)> = self
                .sinks
                .iter()
                .enumerate()
                .map(|(i, sink)| (i, sink.entry_policy()))
                .filter(|&(_, policy)| policy != RecordPolicy::AlertsOnly)
                .collect();
            let mut votes = vec![false; n_detectors];
            let mut scores = vec![0.0f32; n_detectors];
            for i in 0..n {
                let alerted = combined_bools[i];
                // Only a recording sink's policy looks at the votes.
                let voted = !entry_sinks.is_empty() && member_bools.iter().any(|member| member[i]);
                let recorded = entry_sinks
                    .iter()
                    .any(|&(_, policy)| policy.keeps(alerted, voted));
                if !alerted && !recorded {
                    continue;
                }
                // An owned entry is materialized only here — for the
                // positions a sink actually consumes.
                let entry = &LogEntry::parse(block.line(i))
                    .expect("arena lines are stored only after a successful parse");
                for (vote, member) in votes.iter_mut().zip(&member_bools) {
                    *vote = member[i];
                }
                for (score, column) in scores.iter_mut().zip(&columns) {
                    *score = column[i].confidence();
                }
                let index = self.finalized + i as u64;
                if recorded {
                    let record = ScoredEntry {
                        index,
                        tenant: tenant.as_ref(),
                        entry,
                        alerted,
                        votes: &votes,
                        scores: &scores,
                    };
                    for &(si, policy) in &entry_sinks {
                        if policy.keeps(alerted, voted) {
                            self.sinks[si].on_entry(&record);
                        }
                    }
                }
                if alerted {
                    let alert = Alert {
                        index,
                        tenant: tenant.as_ref(),
                        entry,
                        votes: &votes,
                        scores: &scores,
                    };
                    for sink in &mut self.sinks {
                        sink.on_alert(&alert);
                    }
                }
            }
            self.stats.sink_busy += sink_started.elapsed();
        }

        self.observe_for_recalibration(&block, &columns, &member_bools);
        self.observe_for_threshold_control(&combined_bools);

        self.finalized += n as u64;
        self.stats.chunks += 1;
        self.acc_combined.extend_from_slice(&combined_bools);
        for (acc, member) in self.acc_members.iter_mut().zip(member_bools) {
            acc.extend(member);
        }

        // Recycle the chunk's arena: once the workers have dropped their
        // handles this is the last one, so the block (its capacity and
        // warm interner) goes back to the pool for the next chunk.
        if self.block_pool.len() <= self.inflight_cap() {
            if let Ok(mut block) = Arc::try_unwrap(block) {
                block.clear();
                self.block_pool.push(block);
            }
        }
    }

    /// Delivers replayed-history verdicts for entries finalized in
    /// **earlier** chunks (their client escalated later): patches the
    /// accumulated report vectors in place and, when an entry's combined
    /// verdict flips under the rule that was in effect at its stream
    /// position, counts the alert and fires it late to every sink.
    ///
    /// Entries suppressed at finalization time carried all-CLEAR member
    /// votes, so a flip here is always CLEAR→alert; entry-record sinks
    /// ([`AlertSink::entry_policy`]) that already consumed the
    /// suppressed record only see the late alert, not a rewritten
    /// record — the one documented divergence of the replay path.
    fn apply_retro_verdicts(&mut self, early: Vec<RetroVerdict>) {
        for rv in early {
            let votes: Vec<bool> = rv.verdicts.iter().map(|v| v.alert).collect();
            let combined = self.adjudicate_at(rv.index, &votes);
            let mut was = false;
            if rv.index >= self.acc_base {
                let pos = (rv.index - self.acc_base) as usize;
                was = self.acc_combined[pos];
                self.acc_combined[pos] = combined;
                for (acc, vote) in self.acc_members.iter_mut().zip(&votes) {
                    acc[pos] = *vote;
                }
            }
            if combined && !was {
                self.stats.alerts += 1;
                if !self.sinks.is_empty() {
                    let sink_started = Instant::now();
                    let entry = LogEntry::parse(&rv.line)
                        .expect("replay lines were copied out of a parsed arena");
                    let scores: Vec<f32> = rv.verdicts.iter().map(|v| v.confidence()).collect();
                    let alert = Alert {
                        index: rv.index,
                        tenant: self.tenant.as_ref(),
                        entry: &entry,
                        votes: &votes,
                        scores: &scores,
                    };
                    for sink in &mut self.sinks {
                        sink.on_alert(&alert);
                    }
                    self.stats.sink_busy += sink_started.elapsed();
                }
            }
        }
    }

    /// Combines one entry's member votes under the rule that was in
    /// effect at its feed position: the last recorded install at or
    /// before the index, or the stream-start rule before any install.
    fn adjudicate_at(&self, index: u64, votes: &[bool]) -> bool {
        let vectors: Vec<AlertVector> = self
            .names
            .iter()
            .zip(votes)
            .map(|(name, vote)| AlertVector::from_bools(name, &[*vote]))
            .collect();
        let refs: Vec<&AlertVector> = vectors.iter().collect();
        let combined = match self.schedule.iter().rev().find(|u| u.at_entry <= index) {
            Some(update) => WeightedVote::new(update.weights.clone(), update.threshold)
                .expect("recorded updates hold validated parameters")
                .apply(&refs),
            None => match &self.initial_rule {
                Rule::KOutOfN(rule) => rule.apply(&refs),
                Rule::Weighted(rule) => rule.apply(&refs),
            },
        };
        combined.to_bools()[0]
    }

    /// Installs every queued rule change gating at or before `seq`.
    pub(crate) fn install_due_rules(&mut self, seq: u64) {
        while let Some((first_seq, _)) = self.pending_rules.front() {
            if *first_seq > seq {
                break;
            }
            let (_, rule) = self.pending_rules.pop_front().expect("front checked");
            let (weights, threshold) = rule_parameters(&rule);
            // A configured recalibrator adopts the manual override as
            // its new base (evidence kept).
            if let Some(recal) = &mut self.recalib {
                recal.reseed(&weights, threshold);
            }
            self.rule = rule;
            self.stats.updates.adjudication += 1;
            self.schedule.push(AppliedRuleUpdate {
                at_entry: self.finalized,
                weights,
                threshold,
                provenance: RuleProvenance::Manual,
            });
        }
    }

    /// Feeds one finalized chunk to the recalibrator — labeled evidence
    /// where the oracle has labels, the confidence-weighted peer proxy
    /// (from [`Verdict::confidence`]) otherwise — and, when the cadence
    /// has elapsed, derives and installs a weight update taking effect
    /// at the **next** chunk boundary.
    fn observe_for_recalibration(
        &mut self,
        block: &EntryBlock,
        columns: &[Vec<Verdict>],
        member_bools: &[Vec<bool>],
    ) {
        let Some(recal) = self.recalib.as_mut() else {
            return;
        };
        let mut labels = self.labels.as_mut();
        let base = self.finalized;
        let derived = {
            let mut row = vec![false; member_bools.len()];
            let mut confidence = vec![0.0f64; member_bools.len()];
            for i in 0..block.len() {
                for (slot, member) in row.iter_mut().zip(member_bools) {
                    *slot = member[i];
                }
                // The oracle is the one consumer here that needs an
                // owned entry; it is materialized lazily, and not at
                // all without an oracle.
                let label = labels.as_mut().and_then(|oracle| {
                    let entry = LogEntry::parse(block.line(i))
                        .expect("arena lines are stored only after a successful parse");
                    oracle(base + i as u64, &entry)
                });
                match label {
                    Some(malicious) => recal.observe_labeled(&row, malicious),
                    None => {
                        for (slot, column) in confidence.iter_mut().zip(columns) {
                            *slot = f64::from(column[i].confidence());
                        }
                        recal.observe_scored(&row, &confidence);
                    }
                }
            }
            if recal.due() {
                recal.rederive()
            } else {
                None
            }
        };
        if let Some(update) = derived {
            self.rule = Rule::Weighted(
                update
                    .to_rule()
                    .expect("recalibrator emits validated weights"),
            );
            self.stats.updates.adjudication += 1;
            self.schedule.push(AppliedRuleUpdate {
                at_entry: base + block.len() as u64,
                weights: update.weights,
                threshold: update.threshold,
                provenance: RuleProvenance::LearnedWeights,
            });
        }
        self.drain_drift_alarms();
    }

    /// Moves any drift alarms raised by the recalibrator during the
    /// just-observed chunk into driver-side telemetry, notifying the
    /// optional observer hook for each.
    fn drain_drift_alarms(&mut self) {
        let Some(recal) = self.recalib.as_mut() else {
            return;
        };
        let alarms = recal.take_drift_alarms();
        if alarms.is_empty() {
            return;
        }
        self.stats.drift_alarms += alarms.len() as u64;
        if let Some(hook) = self.drift_hook.as_mut() {
            for alarm in &alarms {
                hook(alarm);
            }
        }
    }

    /// Feeds one finalized chunk's combined verdicts to the threshold
    /// controller and, when its cadence has elapsed, installs the
    /// proposed alarm threshold at the **next** chunk boundary — the
    /// same install path (and schedule record) as every other rule
    /// change, so recorded-schedule replay stays bit-identical.
    fn observe_for_threshold_control(&mut self, combined_bools: &[bool]) {
        let Some(ctrl) = self.thresholds.as_mut() else {
            return;
        };
        for &alerted in combined_bools {
            ctrl.observe(alerted);
        }
        if !ctrl.due() {
            return;
        }
        let (weights, current) = rule_parameters(&self.rule);
        let Some(next) = ctrl.propose(current) else {
            return;
        };
        self.rule = Rule::Weighted(
            WeightedVote::new(weights.clone(), next)
                .expect("controller preserves validated weights and proposes a finite threshold"),
        );
        // A configured recalibrator adopts the new threshold as its
        // base, exactly as for a manual install (evidence kept).
        if let Some(recal) = &mut self.recalib {
            recal.reseed(&weights, next);
        }
        self.stats.updates.adjudication += 1;
        self.schedule.push(AppliedRuleUpdate {
            at_entry: self.finalized + combined_bools.len() as u64,
            weights,
            threshold: next,
            provenance: RuleProvenance::LearnedThreshold,
        });
    }
}

/// The weighted-form parameters of a rule: a weighted rule's own
/// weights/threshold, a k-out-of-n rule's exact weighted equivalent
/// (unit weights, threshold `k`).
fn rule_parameters(rule: &Rule) -> (Vec<f64>, f64) {
    match rule {
        Rule::Weighted(rule) => (rule.weights().to_vec(), rule.threshold()),
        Rule::KOutOfN(rule) => (vec![1.0; rule.n() as usize], f64::from(rule.k())),
    }
}
