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
        let n_detectors = self.votes.len();

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

        // Online adjudication, reusing the ensemble rules verbatim: each
        // member's votes are packed once, from its column, into a scratch
        // vector that outlives the chunk.
        let adjudicate_started = Instant::now();
        for (votes, column) in self.votes.iter_mut().zip(&columns) {
            votes.refill(column.iter().map(|v| v.alert));
        }
        let combined = self.rule.apply(&self.votes);
        self.stats.adjudicate_busy += adjudicate_started.elapsed();
        self.stats.alerts += combined.count();

        if !self.sinks.is_empty() {
            let sink_started = Instant::now();
            // Which finalized entries each sink asked to be shown
            // (the durable store records them); most ask for none.
            let policies: Vec<RecordPolicy> =
                self.sinks.iter().map(|sink| sink.entry_policy()).collect();
            let recording = policies.iter().any(|&p| p != RecordPolicy::AlertsOnly);
            // The positions some sink consumes, and no others: the
            // alerts, plus what a recording sink's policy adds — where a
            // member voted, or everywhere. Walked a word at a time: a
            // quiet stretch costs one test per 64 entries.
            let mut shown = combined.clone();
            if policies.contains(&RecordPolicy::AllEntries) {
                shown.refill(std::iter::repeat_n(true, n));
            } else if recording {
                for member in &self.votes {
                    shown.union_with(member);
                }
            }
            let mut votes = vec![false; n_detectors];
            let mut scores = vec![0.0f32; n_detectors];
            for i in shown.iter_alerted() {
                // The owned entry is assembled only here — for the
                // positions a sink actually consumes — from the arena's
                // metadata, into the one reused slot.
                let entry = block.fill_entry(i, &mut self.entry_slot);
                for (vote, member) in votes.iter_mut().zip(&self.votes) {
                    *vote = member.get(i);
                }
                for (score, column) in scores.iter_mut().zip(&columns) {
                    *score = column[i].confidence();
                }
                let index = self.finalized + i as u64;
                let (alerted, voted) = (combined.get(i), votes.contains(&true));
                if recording {
                    let record = ScoredEntry {
                        index,
                        tenant: self.tenant.as_ref(),
                        entry,
                        alerted,
                        votes: &votes,
                        scores: &scores,
                    };
                    for (sink, policy) in self.sinks.iter_mut().zip(&policies) {
                        if policy.keeps(alerted, voted) {
                            sink.on_entry(&record);
                        }
                    }
                }
                if alerted {
                    let alert = Alert {
                        index,
                        tenant: self.tenant.as_ref(),
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

        self.observe_for_recalibration(&block, &columns);
        self.observe_for_threshold_control(&combined);

        self.finalized += n as u64;
        self.stats.chunks += 1;
        self.acc_combined.append(&combined);
        for (acc, votes) in self.acc_members.iter_mut().zip(&self.votes) {
            acc.append(votes);
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
            // The report window opened at the last drain: entries before
            // it were handed out and are past patching.
            let acc_base = self.finalized - self.acc_combined.len() as u64;
            if rv.index >= acc_base {
                let pos = (rv.index - acc_base) as usize;
                was = self.acc_combined.get(pos);
                self.acc_combined.set(pos, combined);
                for (acc, vote) in self.acc_members.iter_mut().zip(&votes) {
                    acc.set(pos, *vote);
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
    fn adjudicate_at(&mut self, index: u64, votes: &[bool]) -> bool {
        // Between chunks the per-chunk vote vectors are free: one-entry
        // scratch here, refilled by the next adjudication.
        for (scratch, vote) in self.votes.iter_mut().zip(votes) {
            scratch.refill([*vote]);
        }
        let combined = match self.schedule.iter().rev().find(|u| u.at_entry <= index) {
            Some(update) => Rule::Weighted(
                WeightedVote::new(update.weights.clone(), update.threshold)
                    .expect("recorded updates hold validated parameters"),
            )
            .apply(&self.votes),
            None => self.initial_rule.apply(&self.votes),
        };
        combined.get(0)
    }

    /// Installs every queued rule change gating at or before `seq`.
    pub(crate) fn install_due_rules(&mut self, seq: u64) {
        while let Some((first_seq, _)) = self.pending_rules.front() {
            if *first_seq > seq {
                break;
            }
            let (_, rule) = self.pending_rules.pop_front().expect("front checked");
            self.install_rule(rule, self.finalized, RuleProvenance::Manual);
        }
    }

    /// The one path every rule change takes — a manual install, the
    /// recalibrator's weights, the controller's threshold — so a
    /// recorded schedule replays bit-identically: `rule` governs from
    /// entry `at_entry` on, a configured recalibrator adopts it as its
    /// base (evidence kept; a no-op for weights it derived itself), and
    /// the schedule records it in weighted form.
    fn install_rule(&mut self, rule: Rule, at_entry: u64, provenance: RuleProvenance) {
        let (weights, threshold) = rule_parameters(&rule);
        if let Some(recal) = &mut self.recalib {
            recal.reseed(&weights, threshold);
        }
        self.rule = rule;
        self.stats.updates.adjudication += 1;
        self.schedule.push(AppliedRuleUpdate {
            at_entry,
            weights,
            threshold,
            provenance,
        });
    }

    /// Feeds one finalized chunk to the recalibrator — labeled evidence
    /// where the oracle has labels, the confidence-weighted peer proxy
    /// (from [`Verdict::confidence`]) otherwise — and, when the cadence
    /// has elapsed, derives and installs a weight update taking effect
    /// at the **next** chunk boundary.
    fn observe_for_recalibration(&mut self, block: &EntryBlock, columns: &[Vec<Verdict>]) {
        let Some(recal) = self.recalib.as_mut() else {
            return;
        };
        let mut labels = self.labels.as_mut();
        let base = self.finalized;
        let derived = {
            let mut row = vec![false; self.votes.len()];
            let mut confidence = vec![0.0f64; self.votes.len()];
            for i in 0..block.len() {
                for (slot, member) in row.iter_mut().zip(&self.votes) {
                    *slot = member.get(i);
                }
                // The oracle is the one consumer here that needs an
                // owned entry; it is assembled lazily into the reused
                // slot, and not at all without an oracle.
                let label = labels.as_mut().and_then(|oracle| {
                    oracle(base + i as u64, block.fill_entry(i, &mut self.entry_slot))
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
            let rule = update
                .to_rule()
                .expect("recalibrator emits validated weights");
            let next = base + block.len() as u64;
            self.install_rule(Rule::Weighted(rule), next, RuleProvenance::LearnedWeights);
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
    fn observe_for_threshold_control(&mut self, combined: &AlertVector) {
        let Some(ctrl) = self.thresholds.as_mut() else {
            return;
        };
        for i in 0..combined.len() {
            ctrl.observe(combined.get(i));
        }
        if !ctrl.due() {
            return;
        }
        let (weights, current) = rule_parameters(&self.rule);
        let Some(next) = ctrl.propose(current) else {
            return;
        };
        let rule = WeightedVote::new(weights, next)
            .expect("controller preserves validated weights and proposes a finite threshold");
        let at_entry = self.finalized + combined.len() as u64;
        self.install_rule(
            Rule::Weighted(rule),
            at_entry,
            RuleProvenance::LearnedThreshold,
        );
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
