//! The tail rule: the highest percentile with at least ten samples beyond
//! it.

use ccs_perfbench::stats::{percentile, rank, tail_percentile};
use ccs_perfbench::workload::Workload;

#[test]
fn the_tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(39), Some(50.0));
    assert_eq!(tail_percentile(40), Some(75.0));
    assert_eq!(tail_percentile(99), Some(75.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(199), Some(90.0));
    assert_eq!(tail_percentile(200), Some(95.0));
    assert_eq!(tail_percentile(999), Some(95.0));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(9999), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    for n in 1..3000 {
        if let Some(p) = tail_percentile(n) {
            assert!(n - rank(p, n) >= 10, "n = {n}: p{p} leaves fewer than ten");
        }
    }
}

#[test]
fn percentiles_use_the_nearest_rank() {
    let samples: Vec<f64> = (1..=40).rev().map(f64::from).collect();
    assert_eq!(percentile(&samples, 50.0), Some(20.0));
    assert_eq!(percentile(&samples, 75.0), Some(30.0));
    assert_eq!(percentile(&samples, 100.0), Some(40.0));
    assert_eq!(percentile(&[], 50.0), None);
    // Exactly ten samples lie beyond the p75 the rule picks for n = 40.
    let p75 = percentile(&samples, 75.0).unwrap();
    assert_eq!(samples.iter().filter(|&&s| s > p75).count(), 10);
}

#[test]
fn every_fixed_tail_is_a_ladder_percentile() {
    for w in Workload::ALL {
        let (request, job) = w.tail_percentiles();
        for p in [request, job] {
            assert!(ccs_perfbench::stats::TAIL_LADDER.contains(&p), "{w}: p{p}");
        }
    }
}
