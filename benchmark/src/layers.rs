//! The traced run: every direct call the harness makes into a single
//! layer's public functions lives in this file, each inside a span.
//!
//! The layer pass walks the workload's own lines in 4 096-line blocks —
//! one chunk's worth — and calls, block by block, what the engine would
//! call: frame, parse, triage, each ensemble member, adjudicate, the
//! JSON and store sinks, the store itself. Detector and triage state
//! carries over from block to block exactly as inside a pipeline with
//! triage off. Nothing in `crates/` is instrumented; the
//! `pipeline.engine.*_busy_*` metrics read the program's own
//! `Pipeline::stats()` counters as a cross-check on the harness's spans.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

use divscrape_detect::{Detector, FastTriage, TriageDecision, TriageFilter, Verdict};
use divscrape_ensemble::{AlertVector, KOutOfN};
use divscrape_httplog::{EntryBlock, EntryRef, FramedLineRef, LineFramer, LogEntry};
use divscrape_ingest::{FileTail, IngestDriver, LogSource, Replay, ReplayPace, SourceEvent};
use divscrape_pipeline::{Alert, AlertSink, JsonLinesSink, ScoredEntry, StoreSink};
use divscrape_service::shard_of;
use divscrape_store::{AlertStore, Record, RecordKey, RecordKind, StoreConfig};

use crate::endtoend::{run_pass_traced, Engine, Probe, BLOCK_LINES};
use crate::metrics::{member_metric, ratio, Measured};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Member, Workload};

/// Bytes handed to the framer per `push` — a socket-sized read.
const FRAMER_READ_BYTES: usize = 64 * 1024;

/// Fresh-state rounds (layer pass, then engine passes); each metric is
/// the median over them.
const ROUNDS: usize = 3;

/// Shards `service.route.ns_per_line` hashes for: with one shard
/// `shard_of` returns before it hashes anything.
const ROUTE_SHARDS: usize = 4;

/// `lines` as a byte stream: each followed by a newline.
fn on_the_wire(lines: &[String]) -> String {
    lines.iter().flat_map(|l| [l.as_str(), "\n"]).collect()
}

/// One round's values, by metric name.
type Round = BTreeMap<&'static str, f64>;

/// One pass over `lines` with fresh state, calling each layer block by
/// block; returns the round's `httplog.*`, `detect.*`, `ensemble.*`,
/// sink and `store.*` metrics.
fn layer_pass(
    workload: &Workload,
    lines: &[String],
    rep: usize,
    tracer: &mut Tracer,
    scratch: &Path,
) -> Result<Round, String> {
    let io_err = |e: std::io::Error| e.to_string();
    let n_blocks = lines.len().div_ceil(BLOCK_LINES);
    let entries = lines.len() as f64;
    let from = tracer.mark();

    let mut framer = LineFramer::new();
    let mut arena = EntryBlock::new();
    let mut triage = FastTriage::stock();
    let mut members: Vec<_> = Member::ALL.iter().map(|m| (*m, m.boxed())).collect();
    let composed: Vec<usize> = Member::ALL
        .iter()
        .enumerate()
        .filter(|(_, m)| workload.members.contains(m))
        .map(|(i, _)| i)
        .collect();
    let rule = KOutOfN::any(composed.len() as u32);
    let mut json_sink = JsonLinesSink::new(std::io::sink());
    let sink_dir = scratch.join(format!("layer-{rep}-store-sink"));
    let store_dir = scratch.join(format!("layer-{rep}-store"));
    let mut store_sink = StoreSink::open(&sink_dir).map_err(io_err)?;
    let mut store = AlertStore::open(&store_dir, StoreConfig::default()).map_err(io_err)?;

    let (mut framed_lines, mut framed_bytes, mut parse_failed) = (0u64, 0u64, 0u64);
    let (mut benign, mut escalations) = (0u64, 0u64);
    let mut member_votes = [0u64; Member::ALL.len()];
    let mut alerts = 0u64;
    let mut stored: Vec<Record> = Vec::new();

    for (b, chunk) in lines.chunks(BLOCK_LINES).enumerate() {
        let block = (rep * n_blocks + b) as u32;
        let base = (b * BLOCK_LINES) as u64;
        let wire = on_the_wire(chunk);
        let root = tracer.begin("layers.block", None, block);

        tracer.span("httplog.framing", Some(root), block, || {
            for read in wire.as_bytes().chunks(FRAMER_READ_BYTES) {
                framer.push(read);
                while let Some(line) = framer.next_line_ref() {
                    if let FramedLineRef::Complete(text) = line {
                        framed_lines += 1;
                        framed_bytes += black_box(text).len() as u64 + 1;
                    }
                }
            }
        });

        arena.clear();
        tracer.span("httplog.parse", Some(root), block, || {
            for line in chunk {
                parse_failed += u64::from(arena.push_line(line).is_err());
            }
        });
        let views: Vec<EntryRef<'_>> = (0..arena.len()).map(|i| arena.view(i)).collect();

        tracer.span("detect.triage", Some(root), block, || {
            for view in &views {
                match triage.classify(view) {
                    TriageDecision::Benign => benign += 1,
                    TriageDecision::Escalate => escalations += 1,
                    TriageDecision::Escalated => {}
                }
            }
        });

        let mut columns: Vec<Vec<Verdict>> = Vec::with_capacity(members.len());
        for (i, (member, detector)) in members.iter_mut().enumerate() {
            let mut verdicts = Vec::with_capacity(views.len());
            tracer.span(member.span_name(), Some(root), block, || {
                detector.observe_batch_refs(&views, &mut verdicts);
            });
            member_votes[i] += verdicts.iter().filter(|v| v.alert).count() as u64;
            columns.push(verdicts);
        }

        let votes: Vec<Vec<bool>> = composed
            .iter()
            .map(|&i| columns[i].iter().map(|v| v.alert).collect())
            .collect();
        let combined = tracer.span("ensemble.adjudicate", Some(root), block, || {
            let tools: Vec<AlertVector> = votes
                .iter()
                .map(|column| AlertVector::from_bools("member", column))
                .collect();
            rule.apply(&tools.iter().collect::<Vec<_>>())
        });

        // What finalize materializes for its sinks: one owned entry and
        // one vote/score row per alert.
        struct Row {
            index: u64,
            entry: LogEntry,
            votes: Vec<bool>,
            scores: Vec<f32>,
        }
        let rows: Vec<Row> = combined
            .iter_alerted()
            .filter_map(|i| {
                Some(Row {
                    index: base + i as u64,
                    entry: LogEntry::parse(arena.line(i)).ok()?,
                    votes: votes.iter().map(|column| column[i]).collect(),
                    scores: composed
                        .iter()
                        .map(|&m| columns[m][i].confidence())
                        .collect(),
                })
            })
            .collect();
        alerts += rows.len() as u64;
        fn alert_of(row: &Row) -> Alert<'_> {
            Alert {
                index: row.index,
                tenant: None,
                entry: &row.entry,
                votes: &row.votes,
                scores: &row.scores,
            }
        }

        tracer.span("pipeline.sink.json", Some(root), block, || {
            for row in &rows {
                json_sink.on_alert(&alert_of(row));
            }
        });

        tracer.span("pipeline.store_sink", Some(root), block, || {
            for row in &rows {
                store_sink.on_entry(&ScoredEntry {
                    index: row.index,
                    tenant: None,
                    entry: &row.entry,
                    alerted: true,
                    votes: &row.votes,
                    scores: &row.scores,
                });
                store_sink.on_alert(&alert_of(row));
            }
        });

        let batch: Vec<Record> = rows
            .iter()
            .map(|row| Record {
                key: RecordKey {
                    tenant: None,
                    client: row.entry.client_key(),
                    offset: row.index,
                },
                kind: RecordKind::Alert,
                payload: alert_of(row).to_json().into_bytes(),
            })
            .collect();
        stored.extend(batch.iter().cloned());
        tracer
            .span("store.append", Some(root), block, || {
                store.append_batch(batch)
            })
            .map_err(io_err)?;

        tracer.end(root);
    }

    store_sink.flush();
    let block = (rep * n_blocks) as u32;
    tracer
        .span("store.sync", None, block, || store.sync())
        .map_err(io_err)?;
    let stored_bytes = store.stats().bytes;
    drop(store);
    let mut store = tracer
        .span("store.reopen", None, block, || {
            AlertStore::open(&store_dir, StoreConfig::default())
        })
        .map_err(io_err)?;
    let records = stored.len() as f64;
    let again = tracer
        .span("store.reappend", None, block, || store.append_batch(stored))
        .map_err(io_err)?;
    drop((store, store_sink));
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_dir_all(&sink_dir);

    let to = tracer.mark();
    let ns = |name: &str| tracer.total(name, from..to).0 as f64;
    let allocs = |name: &str| tracer.total(name, from..to).1 as f64;
    let mut round = Round::new();
    round.insert(
        "httplog.framing.ns_per_line",
        ratio(ns("httplog.framing"), framed_lines as f64),
    );
    round.insert(
        "httplog.framing.bytes_per_line",
        ratio(framed_bytes as f64, framed_lines as f64),
    );
    round.insert("httplog.parse.ns_per_entry", ns("httplog.parse") / entries);
    round.insert(
        "httplog.parse.allocs_per_entry",
        allocs("httplog.parse") / entries,
    );
    round.insert("httplog.parse.failed", parse_failed as f64);
    round.insert("detect.triage.ns_per_entry", ns("detect.triage") / entries);
    round.insert("detect.triage.suppressed_share", benign as f64 / entries);
    round.insert("detect.triage.escalations", escalations as f64);
    for (i, member) in Member::ALL.iter().enumerate() {
        let span = member.span_name();
        round.insert(member_metric(*member, "ns_per_entry"), ns(span) / entries);
        round.insert(
            member_metric(*member, "allocs_per_entry"),
            allocs(span) / entries,
        );
        round.insert(
            member_metric(*member, "vote_share"),
            member_votes[i] as f64 / entries,
        );
    }
    round.insert(
        "ensemble.adjudicate.ns_per_entry",
        ns("ensemble.adjudicate") / entries,
    );
    round.insert("ensemble.adjudicate.alert_share", alerts as f64 / entries);
    round.insert(
        "pipeline.sink.json_ns_per_alert",
        ratio(ns("pipeline.sink.json"), alerts as f64),
    );
    round.insert(
        "pipeline.store_sink.ns_per_record",
        ratio(ns("pipeline.store_sink"), 2.0 * alerts as f64),
    );
    round.insert(
        "store.append.ns_per_record",
        ratio(ns("store.append"), records),
    );
    round.insert(
        "store.append.bytes_per_record",
        ratio(stored_bytes as f64, records),
    );
    round.insert("store.sync.ms", ns("store.sync") / 1e6);
    round.insert("store.reopen.ms", ns("store.reopen") / 1e6);
    round.insert(
        "store.reappend.ns_per_record",
        ratio(ns("store.reappend"), records),
    );
    round.insert(
        "store.dedup.skipped_share",
        ratio(
            again.skipped as f64,
            (again.skipped + again.appended) as f64,
        ),
    );
    Ok(round)
}

/// The ingest and routing layers, once each over `lines`.
fn ingest_layers(
    workload: &Workload,
    lines: &[String],
    tracer: &mut Tracer,
    scratch: &Path,
    out: &mut Measured,
) -> Result<(), String> {
    let n = lines.len() as f64;
    let from = tracer.mark();

    let pipeline = workload.builder().build().map_err(|e| e.to_string())?;
    let mut driver = IngestDriver::new(pipeline);
    let mut replay = Replay::from_lines(lines.to_vec(), ReplayPace::Unlimited);
    let report = tracer
        .span("ingest.driver", None, 0, || driver.run(&mut replay))
        .map_err(|e| e.to_string())?;
    if report.stats.entries_ingested != lines.len() as u64 {
        return Err(format!(
            "ingest driver took {} of {} lines",
            report.stats.entries_ingested,
            lines.len()
        ));
    }

    std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;
    let path = scratch.join("tail.log");
    std::fs::write(&path, on_the_wire(lines)).map_err(|e| e.to_string())?;
    let mut tail = FileTail::read_to_end(&path).map_err(|e| e.to_string())?;
    let tailed = tracer.span("ingest.file_tail", None, 0, || -> std::io::Result<u64> {
        let mut tailed = 0u64;
        loop {
            match tail.poll(Duration::ZERO)? {
                SourceEvent::Line(line) => tailed += u64::from(!black_box(line).is_empty()),
                SourceEvent::Eof => return Ok(tailed),
                SourceEvent::Idle | SourceEvent::Truncated { .. } => {}
            }
        }
    });
    let _ = std::fs::remove_file(&path);
    if tailed.map_err(|e| e.to_string())? != lines.len() as u64 {
        return Err("the file tail lost lines".to_owned());
    }

    tracer.span("service.route", None, 0, || {
        for line in lines {
            black_box(shard_of(black_box(line), ROUTE_SHARDS));
        }
    });

    let to = tracer.mark();
    let ns = |name: &str| tracer.total(name, from..to).0 as f64;
    out.set("ingest.driver.ns_per_line", ns("ingest.driver") / n);
    out.set("ingest.file_tail.ns_per_line", ns("ingest.file_tail") / n);
    out.set("service.route.ns_per_line", ns("service.route") / n);
    Ok(())
}

/// The engine as a whole, right after the round's layer pass so that a
/// machine-wide slow phase hits both alike: the workload's composition
/// as a bare single-threaded pipeline (one plain pass, one traced), then
/// behind a service plane — the difference is what the plane costs.
/// Adds the round's `pipeline.*`, `service.*` and `trace.*` metrics.
fn engine_passes(
    workload: &'static Workload,
    lines: &[String],
    rep: usize,
    tracer: &mut Tracer,
    scratch: &Path,
    round: &mut Round,
) -> Result<(), String> {
    let n = lines.len() as f64;
    let probe = Probe::Count(Arc::new(AtomicU64::new(0)));
    let pass = |plane: bool, tracer: Option<&mut Tracer>, tag: &str| {
        let dir = scratch.join(format!("engine-{rep}-{tag}"));
        let mut engine = Engine::build(workload, plane, &probe, &dir)?;
        let outcome = run_pass_traced(&mut engine, lines, tracer);
        engine.close();
        Ok::<_, String>(outcome)
    };
    let plain = pass(false, None, "plain")?;
    let traced = pass(false, Some(&mut *tracer), "traced")?;
    let from = tracer.mark();
    let plane = pass(true, Some(&mut *tracer), "plane")?;
    let ingest_ns = tracer.total("service.ingest_block", from..tracer.mark()).0 as f64;

    // The layers the workload composes, per entry the engine handles.
    // Members only see what triage lets through (the unsuppressed plus
    // the replayed); a durable workload pays the store sink twice per
    // alert (score record + alert record).
    let stats = &plain.stats;
    let member_share =
        (n - stats.triage_suppressed_entries as f64 + stats.triage_replayed_entries as f64) / n;
    let mut layer_sum =
        round["httplog.parse.ns_per_entry"] + round["ensemble.adjudicate.ns_per_entry"];
    if workload.triage {
        layer_sum += round["detect.triage.ns_per_entry"];
    }
    for member in workload.members {
        layer_sum += round[member_metric(*member, "ns_per_entry")] * member_share;
    }
    if workload.service {
        layer_sum += round["pipeline.store_sink.ns_per_record"]
            * 2.0
            * round["ensemble.adjudicate.alert_share"];
    }

    let engine = plain.ns_per_entry();
    let busy = |time: Duration| time.as_nanos() as f64 / n;
    round.insert("pipeline.engine.ns_per_entry", engine);
    round.insert("pipeline.engine.self_ns_per_entry", engine - layer_sum);
    round.insert(
        "pipeline.engine.detect_busy_ns_per_entry",
        busy(stats.detect_busy),
    );
    round.insert(
        "pipeline.engine.adjudicate_busy_ns_per_entry",
        busy(stats.adjudicate_busy),
    );
    round.insert(
        "pipeline.engine.sink_busy_ns_per_entry",
        busy(stats.sink_busy),
    );
    round.insert("pipeline.engine.chunks", stats.chunks_processed as f64);
    round.insert(
        "pipeline.triage.replayed_share",
        stats.triage_replayed_entries as f64 / n,
    );
    round.insert("service.ingest.ns_per_line", ingest_ns / n);
    round.insert(
        "service.ingest.blocked_share",
        ingest_ns / plane.elapsed_ns as f64,
    );
    round.insert("service.drain.ms", plane.drain_ns as f64 / 1e6);
    round.insert("service.ingest.dropped", plane.dropped as f64);
    round.insert(
        "service.plane.overhead_ns_per_entry",
        plane.ns_per_entry() - engine,
    );
    round.insert("trace.coverage", ratio(layer_sum, engine));
    round.insert("trace.overhead_share", traced.ns_per_entry() / engine - 1.0);
    Ok(())
}

/// Runs every layer measurement for `workload` over `lines` and sets
/// every `PER_LAYER` metric except the `harness.*` ones and
/// `pipeline.engine.flush_interval_ms`, which come from the end-to-end
/// phases of the traced run. Each metric is the median over
/// [`ROUNDS`] fresh-state rounds; ratios between layers are taken
/// within a round, never between medians.
pub fn measure(
    workload: &'static Workload,
    lines: &[String],
    tracer: &mut Tracer,
    scratch: &Path,
    out: &mut Measured,
) -> Result<(), String> {
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for rep in 0..ROUNDS {
        let mut round = layer_pass(workload, lines, rep, tracer, scratch)?;
        engine_passes(workload, lines, rep, tracer, scratch, &mut round)?;
        for (name, value) in round {
            samples.entry(name).or_default().push(value);
        }
    }
    for (name, values) in &mut samples {
        out.set(name, median(values));
    }
    ingest_layers(workload, lines, tracer, scratch, out)
}
