//! The detector costs no `benchmark/` layer metric covers: the three
//! trained session-model baselines (the harness composes only the stock
//! five, priced there as `detect.<member>.ns_per_entry`), their training
//! cost, and the bare `Sessionizer` they and Arcane share.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use divscrape_detect::baselines::{
    Cart, CartParams, Logistic, LogisticParams, NaiveBayes, SessionModelDetector, TrainingSet,
};
use divscrape_detect::{run_alerts, Detector, Sessionizer};
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

fn bench_session_models(c: &mut Criterion) {
    let log = log();
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

criterion_group!(
    benches,
    bench_session_models,
    bench_sessionizer,
    bench_training
);
criterion_main!(benches);
