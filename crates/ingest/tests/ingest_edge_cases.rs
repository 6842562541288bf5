//! Ingestion edge cases: mid-line chunk boundaries over the socket,
//! file rotation/truncation mid-tail, `ErrorPolicy` semantics on
//! malformed CLF lines, graceful shutdown draining the pipeline, and a
//! tail that goes quiet still delivering its last lines' alerts.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use divscrape_detect::baselines::RateLimiter;
use divscrape_detect::Sentinel;
use divscrape_ingest::{
    EndReason, ErrorPolicy, FileTail, IngestDriver, IngestError, LogSource, Replay, ReplayPace,
    SocketSource, SocketSourceConfig, SourceEvent,
};
use divscrape_pipeline::{Alert, PipelineBuilder};

fn clf_line(i: usize) -> String {
    format!(
        "10.2.{}.{} - - [11/Mar/2018:00:{:02}:{:02} +0000] \"GET /items/{} HTTP/1.1\" 200 321 \"-\" \"curl/7.58.0\"",
        i / 200,
        i % 200 + 1,
        (i / 60) % 60,
        i % 60,
        i
    )
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "divscrape-ingest-{tag}-{}-{:?}.log",
        std::process::id(),
        std::thread::current().id()
    ))
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Polls `source` until `n` lines arrived (panics on Eof or timeout).
fn collect_lines<S: LogSource>(source: &mut S, n: usize) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut out = Vec::new();
    while out.len() < n {
        assert!(Instant::now() < deadline, "timed out; got {out:?}");
        match source.poll(Duration::from_millis(20)).unwrap() {
            SourceEvent::Line(l) => out.push(l),
            SourceEvent::Idle => {}
            SourceEvent::Eof => panic!("premature EOF; got {out:?}"),
            SourceEvent::Truncated { .. } => panic!("unexpected oversize discard"),
        }
    }
    out
}

/// A sender that deliberately fragments its writes at arbitrary byte
/// positions — no relation to line boundaries — with tiny pauses so the
/// fragments land in separate TCP segments/reads.
#[test]
fn socket_framer_reassembles_mid_line_chunk_boundaries() {
    let mut source = SocketSource::bind_with(
        "127.0.0.1:0",
        SocketSourceConfig {
            finish_on_disconnect: true,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = source.local_addr();
    let lines: Vec<String> = (0..12).map(clf_line).collect();
    let payload: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let sender = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_nodelay(true).unwrap();
        // 13-byte fragments: every line is split several times, and
        // most fragments end mid-line.
        for chunk in payload.as_bytes().chunks(13) {
            conn.write_all(chunk).unwrap();
            conn.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    let got = collect_lines(&mut source, lines.len());
    sender.join().unwrap();
    assert_eq!(got, lines);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        assert!(Instant::now() < deadline);
        match source.poll(Duration::from_millis(20)).unwrap() {
            SourceEvent::Eof => break,
            SourceEvent::Idle => {}
            other => panic!("expected EOF after disconnect, got {other:?}"),
        }
    }
}

#[test]
fn file_rotation_mid_tail_is_survived() {
    let path = temp_path("rotate");
    let _cleanup = Cleanup(path.clone());
    let rotated = path.with_extension("log.1");
    let _cleanup_rotated = Cleanup(rotated.clone());

    std::fs::write(&path, format!("{}\n{}\n", clf_line(0), clf_line(1))).unwrap();
    let mut tail = FileTail::follow_from_start(&path).unwrap();
    assert_eq!(collect_lines(&mut tail, 2), vec![clf_line(0), clf_line(1)]);

    // logrotate-style: rename the live file away, recreate the path.
    std::fs::rename(&path, &rotated).unwrap();
    std::fs::write(&path, format!("{}\n", clf_line(2))).unwrap();
    assert_eq!(collect_lines(&mut tail, 1), vec![clf_line(2)]);
    assert_eq!(tail.rotations(), 1);

    // And again mid-stream, with content appended after recreation.
    std::fs::remove_file(&rotated).unwrap();
    std::fs::rename(&path, &rotated).unwrap();
    std::fs::write(&path, String::new()).unwrap();
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    writeln!(f, "{}", clf_line(3)).unwrap();
    drop(f);
    assert_eq!(collect_lines(&mut tail, 1), vec![clf_line(3)]);
    assert!(tail.rotations() >= 2);
}

#[test]
fn file_truncation_mid_tail_rewinds_and_drops_the_partial() {
    let path = temp_path("truncate");
    let _cleanup = Cleanup(path.clone());
    // Two complete lines plus a dangling half-line.
    std::fs::write(
        &path,
        format!("{}\n{}\nhalf-a-li", clf_line(0), clf_line(1)),
    )
    .unwrap();
    let mut tail = FileTail::follow_from_start(&path).unwrap();
    assert_eq!(collect_lines(&mut tail, 2), vec![clf_line(0), clf_line(1)]);
    assert_eq!(
        tail.poll(Duration::from_millis(20)).unwrap(),
        SourceEvent::Idle,
        "the dangling half-line must stay buffered"
    );

    // copytruncate-style: the file is truncated in place and rewritten.
    // The buffered "half-a-li" prefix lost its ending and must vanish —
    // not be glued onto the first line of the new content.
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(0).unwrap();
    drop(f);
    let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    writeln!(f, "{}", clf_line(9)).unwrap();
    drop(f);
    assert_eq!(collect_lines(&mut tail, 1), vec![clf_line(9)]);
    assert_eq!(tail.truncations(), 1);
}

fn skip_pipeline() -> divscrape_pipeline::Pipeline {
    PipelineBuilder::new()
        .detector(Sentinel::stock())
        .build()
        .unwrap()
}

#[test]
fn error_policy_skip_counts_and_continues() {
    let lines = vec![
        clf_line(0),
        "total garbage".to_owned(),
        clf_line(1),
        "300.300.300.300 - - nope".to_owned(),
        clf_line(2),
    ];
    let mut driver = IngestDriver::new(skip_pipeline());
    let outcome = driver
        .run(&mut Replay::from_lines(lines, ReplayPace::Unlimited))
        .unwrap();
    assert_eq!(outcome.end, EndReason::SourceExhausted);
    assert_eq!(outcome.stats.lines_read, 5);
    assert_eq!(outcome.stats.entries_ingested, 3);
    assert_eq!(outcome.stats.parse_errors, 2);
    assert_eq!(outcome.stats.quarantined, 0);
    assert_eq!(outcome.report.requests(), 3);
}

#[test]
fn error_policy_abort_stops_at_the_offending_line() {
    let lines = vec![clf_line(0), clf_line(1), "broken".to_owned(), clf_line(2)];
    let mut driver = IngestDriver::new(skip_pipeline()).error_policy(ErrorPolicy::Abort);
    let err = driver
        .run(&mut Replay::from_lines(lines, ReplayPace::Unlimited))
        .unwrap_err();
    match err {
        IngestError::Malformed { line_no, line, .. } => {
            assert_eq!(line_no, 3);
            assert_eq!(line, "broken");
        }
        other => panic!("expected Malformed, got {other}"),
    }
    // The two good entries before the failure are still in the pipeline;
    // the caller decides — here we drain them manually.
    assert_eq!(driver.stats().entries_ingested, 2);
    assert_eq!(driver.pipeline_mut().drain().requests(), 2);
}

/// A `Write` that appends into shared memory, so the test can inspect
/// what the quarantine captured.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);
impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn error_policy_quarantine_preserves_raw_lines() {
    let buf = SharedBuf::default();
    let lines = vec![
        clf_line(0),
        "first bad line".to_owned(),
        clf_line(1),
        "second bad line".to_owned(),
    ];
    let mut driver =
        IngestDriver::new(skip_pipeline()).error_policy(ErrorPolicy::quarantine_to(buf.clone()));
    let outcome = driver
        .run(&mut Replay::from_lines(lines, ReplayPace::Unlimited))
        .unwrap();
    assert_eq!(outcome.stats.parse_errors, 2);
    assert_eq!(outcome.stats.quarantined, 2);
    assert_eq!(outcome.stats.entries_ingested, 2);
    let captured = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    assert_eq!(captured, "first bad line\nsecond bad line\n");
}

#[test]
fn quarantine_is_flushed_even_when_the_run_fails() {
    // A buffered quarantine writer must hit the disk on error exits too:
    // the freshest rejected lines are what the operator needs to see.
    struct FailingAfterBadLine {
        served: bool,
    }
    impl LogSource for FailingAfterBadLine {
        fn poll(&mut self, _timeout: Duration) -> std::io::Result<SourceEvent> {
            if self.served {
                return Err(std::io::Error::other("feed died"));
            }
            self.served = true;
            Ok(SourceEvent::Line("not a log line".to_owned()))
        }
    }
    let buf = SharedBuf::default();
    let mut driver = IngestDriver::new(skip_pipeline()).error_policy(ErrorPolicy::Quarantine(
        Box::new(std::io::BufWriter::with_capacity(64 * 1024, buf.clone())),
    ));
    let err = driver
        .run(&mut FailingAfterBadLine { served: false })
        .unwrap_err();
    assert!(matches!(err, IngestError::Source(_)), "{err}");
    // The driver is still alive (not dropped), yet the quarantined line
    // is already durable.
    let captured = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    assert_eq!(captured, "not a log line\n");
}

#[test]
fn oversized_lines_follow_the_error_policy() {
    // A never-ending "line" from a broken sender must not balloon
    // memory, and must surface through the policy like any bad line.
    let mut source = SocketSource::bind_with(
        "127.0.0.1:0",
        SocketSourceConfig {
            finish_on_disconnect: true,
            max_line: 256,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = source.local_addr();
    let good = clf_line(4);
    let good_sent = good.clone();
    let sender = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&vec![b'x'; 4096]).unwrap(); // no newline in 4 KiB
        conn.write_all(b"\n").unwrap();
        writeln!(conn, "{good_sent}").unwrap();
    });
    let buf = SharedBuf::default();
    let mut driver =
        IngestDriver::new(skip_pipeline()).error_policy(ErrorPolicy::quarantine_to(buf.clone()));
    let outcome = driver.run(&mut source).unwrap();
    sender.join().unwrap();
    assert_eq!(outcome.stats.oversized_lines, 1);
    assert_eq!(outcome.stats.entries_ingested, 1);
    assert_eq!(outcome.stats.quarantined, 1);
    let captured = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    assert!(
        captured.starts_with("# divscrape-ingest: oversized"),
        "{captured}"
    );
}

#[test]
fn stop_handle_shuts_down_gracefully_and_drains_everything() {
    // A live tail never EOFs; a writer keeps appending while the stop
    // fires from another thread. Whatever was ingested by the time the
    // driver notices the stop must come out adjudicated — no drops.
    let path = temp_path("shutdown");
    let _cleanup = Cleanup(path.clone());
    std::fs::write(&path, String::new()).unwrap();
    let tail = FileTail::follow_from_start(&path).unwrap();

    let mut driver = IngestDriver::new(skip_pipeline());
    let stop = driver.stop_handle();
    let writer = std::thread::spawn({
        let path = path.clone();
        move || {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            for i in 0..200 {
                writeln!(f, "{}", clf_line(i)).unwrap();
                if i % 50 == 0 {
                    f.flush().unwrap();
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            f.flush().unwrap();
        }
    });
    let stopper = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(60));
        stop.stop();
    });

    let mut source = tail;
    let outcome = driver.run(&mut source).unwrap();
    writer.join().unwrap();
    stopper.join().unwrap();

    assert_eq!(outcome.end, EndReason::Stopped);
    // Graceful shutdown: every ingested entry was drained and reported.
    assert_eq!(
        outcome.report.requests() as u64,
        outcome.stats.entries_ingested
    );
    assert_eq!(outcome.pipeline.entries_pending, 0);
    assert_eq!(
        outcome.pipeline.entries_processed,
        outcome.stats.entries_ingested
    );
}

#[test]
fn a_tail_that_goes_quiet_still_delivers_its_last_alerts() {
    // Ten requests from one flooding client, then silence: no EOF (the
    // tail follows), no stop, no drain, and nowhere near a full chunk.
    // The driver running out of input is the only moment left, so it
    // must submit then — the alerts reach the sink while the stream is
    // still open.
    let path = temp_path("quiet-tail");
    let _cleanup = Cleanup(path.clone());
    std::fs::write(&path, String::new()).unwrap();
    let mut tail = FileTail::follow_from_start(&path).unwrap();

    let (alert_tx, alert_rx) = std::sync::mpsc::channel::<u64>();
    let pipeline = PipelineBuilder::new()
        .detector(RateLimiter::new(5))
        .sink(move |alert: &Alert<'_>| {
            let _ = alert_tx.send(alert.index);
        })
        .build()
        .unwrap();
    let mut driver = IngestDriver::new(pipeline);
    let stop = driver.stop_handle();
    let running = std::thread::spawn(move || driver.run(&mut tail).unwrap());

    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    for i in 0..10 {
        writeln!(
            file,
            "10.9.9.9 - - [11/Mar/2018:00:00:{i:02} +0000] \"GET /items/{i} HTTP/1.1\" 200 321 \"-\" \"curl/7.58.0\""
        )
        .unwrap();
    }
    file.flush().unwrap();

    // The tenth line's alert means all ten were read and adjudicated.
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let index = alert_rx
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            .expect("a quiet tail must still deliver its alerts within the second");
        if index == 9 {
            break;
        }
    }

    // Only now end the run; everything was already adjudicated.
    stop.stop();
    let outcome = running.join().unwrap();
    assert_eq!(outcome.end, EndReason::Stopped);
    assert_eq!(outcome.stats.entries_ingested, 10);
    assert!(
        outcome.pipeline.idle_flushes >= 1,
        "the idle driver, not the drain, must have submitted the tail"
    );
}

#[test]
fn a_fill_only_tail_that_goes_quiet_still_delivers_its_last_alerts() {
    // As above, with no flush deadline at all: the ten alerts reach the
    // sink only if the driver submits what it holds once the tail runs
    // dry.
    let path = temp_path("quiet-fill-only-tail");
    let _cleanup = Cleanup(path.clone());
    std::fs::write(&path, String::new()).unwrap();
    let mut tail = FileTail::follow_from_start(&path).unwrap();

    let (alert_tx, alert_rx) = std::sync::mpsc::channel::<u64>();
    let pipeline = PipelineBuilder::new()
        .detector(RateLimiter::new(5))
        .max_delay(Duration::MAX)
        .sink(move |alert: &Alert<'_>| {
            let _ = alert_tx.send(alert.index);
        })
        .build()
        .unwrap();
    let mut driver = IngestDriver::new(pipeline);
    let stop = driver.stop_handle();
    let running = std::thread::spawn(move || driver.run(&mut tail).unwrap());

    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    for i in 0..10 {
        writeln!(
            file,
            "10.9.9.8 - - [11/Mar/2018:00:00:{i:02} +0000] \"GET /items/{i} HTTP/1.1\" 200 321 \"-\" \"curl/7.58.0\""
        )
        .unwrap();
    }
    file.flush().unwrap();

    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let index = alert_rx
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            .expect("a fill-only quiet tail must still deliver its alerts within the second");
        if index == 9 {
            break;
        }
    }

    stop.stop();
    let outcome = running.join().unwrap();
    assert_eq!(outcome.end, EndReason::Stopped);
    assert_eq!(outcome.stats.entries_ingested, 10);
    assert_eq!(
        outcome.pipeline.deadline_flushes, 0,
        "fill-only has no deadline"
    );
}

#[test]
fn consecutive_runs_continue_one_logical_stream() {
    // Detector state persists across runs: two runs over the halves of a
    // log equal one run over the whole log.
    let all: Vec<String> = (0..40).map(clf_line).collect();
    let (a, b) = all.split_at(20);

    let mut once = IngestDriver::new(skip_pipeline());
    let whole = once
        .run(&mut Replay::from_lines(all.clone(), ReplayPace::Unlimited))
        .unwrap();

    let mut twice = IngestDriver::new(skip_pipeline());
    let first = twice
        .run(&mut Replay::from_lines(a.to_vec(), ReplayPace::Unlimited))
        .unwrap();
    let second = twice
        .run(&mut Replay::from_lines(b.to_vec(), ReplayPace::Unlimited))
        .unwrap();

    let mut stitched = first.report.combined.to_bools();
    stitched.extend(second.report.combined.to_bools());
    assert_eq!(stitched, whole.report.combined.to_bools());
    assert_eq!(twice.stats().lines_read, 40, "stats accumulate across runs");
}
