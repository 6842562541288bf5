//! Reproducibility: the whole pipeline is a pure function of the seed.

use divscrape::{DiversityStudy, StudyConfig};
use divscrape_detect::{run_alerts, Arcane, Detector, Sentinel};
use divscrape_traffic::{generate, ScenarioConfig};

#[test]
fn identical_seeds_produce_identical_studies() {
    let a = DiversityStudy::new(StudyConfig::new(ScenarioConfig::small(7)))
        .run()
        .unwrap();
    let b = DiversityStudy::new(StudyConfig::new(ScenarioConfig::small(7)))
        .run()
        .unwrap();
    assert_eq!(a.sentinel, b.sentinel);
    assert_eq!(a.arcane, b.arcane);
    assert_eq!(a.contingency, b.contingency);
    assert_eq!(a.log.entries(), b.log.entries());
}

#[test]
fn different_seeds_produce_different_traffic_but_the_same_shape() {
    let a = DiversityStudy::new(StudyConfig::new(ScenarioConfig::small(1)))
        .run()
        .unwrap();
    let b = DiversityStudy::new(StudyConfig::new(ScenarioConfig::small(2)))
        .run()
        .unwrap();
    assert_ne!(a.log.entries(), b.log.entries());
    // Shape stability across seeds: same ordering of the contingency cells.
    for r in [&a, &b] {
        assert!(r.contingency.both > r.contingency.neither);
        assert!(r.contingency.neither > r.contingency.only_first);
        assert!(r.contingency.only_first > r.contingency.only_second);
    }
}

#[test]
fn detector_reset_is_complete() {
    let log = generate(&ScenarioConfig::tiny(5)).unwrap();
    let mut sentinel = Sentinel::stock();
    let first = run_alerts(&mut sentinel, log.entries());
    sentinel.reset();
    let second = run_alerts(&mut sentinel, log.entries());
    assert_eq!(first, second, "Sentinel state leaked across reset");

    let mut arcane = Arcane::stock();
    let first = run_alerts(&mut arcane, log.entries());
    arcane.reset();
    let second = run_alerts(&mut arcane, log.entries());
    assert_eq!(first, second, "Arcane state leaked across reset");
}
