//! Per-detector throughput over a pre-generated log.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use divscrape_detect::baselines::{
    Cart, CartParams, Logistic, LogisticParams, NaiveBayes, RateLimiter, SessionModelDetector,
    SignatureOnly, TrainingSet,
};
use divscrape_detect::{run_alerts, Arcane, Detector, Sentinel, Sessionizer};
use divscrape_traffic::{generate, LabelledLog, ScenarioConfig};

fn log() -> LabelledLog {
    generate(&ScenarioConfig::small(3)).unwrap()
}

fn bench_detector<D: Detector + Clone>(
    c: &mut Criterion,
    name: &str,
    proto: &D,
    log: &LabelledLog,
) {
    let mut g = c.benchmark_group("detector");
    g.sample_size(10);
    g.throughput(Throughput::Elements(log.len() as u64));
    g.bench_function(name, |b| {
        b.iter(|| {
            let mut d = proto.clone();
            d.reset();
            run_alerts(&mut d, log.entries())
        })
    });
    g.finish();
}

fn bench_all(c: &mut Criterion) {
    let log = log();
    bench_detector(c, "sentinel_12k", &Sentinel::stock(), &log);
    bench_detector(c, "arcane_12k", &Arcane::stock(), &log);
    bench_detector(c, "rate_limiter_12k", &RateLimiter::new(60), &log);
    bench_detector(c, "signature_only_12k", &SignatureOnly::stock(), &log);

    let training = TrainingSet::from_log(&log, 5);
    let bayes = NaiveBayes::train(&training).unwrap();
    bench_detector(
        c,
        "naive_bayes_12k",
        &SessionModelDetector::new(bayes, 0.5, 3),
        &log,
    );
    let logistic = Logistic::train(&training, LogisticParams::default()).unwrap();
    bench_detector(
        c,
        "logistic_12k",
        &SessionModelDetector::new(logistic, 0.5, 3),
        &log,
    );
    let cart = Cart::train(&training, CartParams::default()).unwrap();
    bench_detector(
        c,
        "cart_12k",
        &SessionModelDetector::new(cart, 0.5, 3),
        &log,
    );
}

fn bench_sessionizer(c: &mut Criterion) {
    let log = log();
    let mut g = c.benchmark_group("detector");
    g.sample_size(10);
    g.throughput(Throughput::Elements(log.len() as u64));
    g.bench_function("sessionizer_12k", |b| {
        b.iter(|| {
            let mut s = Sessionizer::default();
            for e in log.entries() {
                let _ = s.observe(&e.view());
            }
            s.active_clients()
        })
    });
    g.finish();
}

fn bench_training(c: &mut Criterion) {
    let log = log();
    let training = TrainingSet::from_log(&log, 3);
    let mut g = c.benchmark_group("detector/train");
    g.sample_size(10);
    g.bench_function("naive_bayes", |b| {
        b.iter(|| NaiveBayes::train(&training).unwrap())
    });
    g.bench_function("logistic_sgd", |b| {
        b.iter(|| Logistic::train(&training, LogisticParams::default()).unwrap())
    });
    g.bench_function("cart", |b| {
        b.iter(|| Cart::train(&training, CartParams::default()).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_all, bench_sessionizer, bench_training);
criterion_main!(benches);
