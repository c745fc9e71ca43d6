//! The order statistics match Python's `statistics` module and report
//! their sample counts.

use cgct_perfbench::stats::{median, quartiles, tail_percentile, Summary, TAIL_SAMPLES};

#[test]
fn median_of_odd_even_and_empty_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[5.0]), Some(5.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn quartiles_match_python_exclusive_method() {
    // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([10, 1, 4, 7], n=4)
    assert_eq!(quartiles(&[10.0, 1.0, 4.0, 7.0]), Some([1.75, 5.5, 9.25]));
    // statistics.quantiles([2, 1], n=4)
    assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
    assert_eq!(quartiles(&[3.0]), Some([3.0; 3]));
    assert_eq!(quartiles(&[]), None);
}

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    let upto = |n: u32| -> Vec<f64> { (1..=n).map(f64::from).collect() };
    assert_eq!(TAIL_SAMPLES, 10);
    assert_eq!(tail_percentile(&upto(19)), None);
    assert_eq!(tail_percentile(&upto(20)), Some((50, 10.0)));
    assert_eq!(tail_percentile(&upto(40)), Some((75, 30.0)));
    assert_eq!(tail_percentile(&upto(100)), Some((90, 90.0)));
    assert_eq!(tail_percentile(&upto(200)), Some((95, 190.0)));
    assert_eq!(tail_percentile(&upto(1000)), Some((99, 990.0)));
}

#[test]
fn summary_reports_its_sample_count() {
    let xs: Vec<f64> = (1..=25).map(f64::from).collect();
    let s = Summary::of(&xs).expect("non-empty");
    assert_eq!(s.n, 25);
    assert_eq!(s.median(), 13.0);
    assert_eq!(s.tail, Some((50, 13.0)));
    assert!(s.describe("s").ends_with("n=25)"), "{}", s.describe("s"));
    assert!(Summary::of(&[]).is_none());
}
