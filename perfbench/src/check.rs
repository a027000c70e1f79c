//! Correctness checks. Every answer the program gives during a run is
//! compared with an oracle computed apart from it (std collections, or keys
//! whose membership is known by construction); a wrong answer counts as a
//! failed operation and makes the run incorrect.

use crate::common::Report;
use pof_filter::SelectionVector;
use std::collections::HashMap;
use std::time::Instant;

/// Join output the oracle and the program are compared on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JoinTotals {
    pub matches: u64,
    pub aggregate: u64,
}

/// The join computed with a std `HashMap` over the dimension keys, one entry
/// per chunk of fact tuples (keys and payloads).
pub fn oracle_join<'a>(
    dimension_keys: &[u32],
    chunks: impl Iterator<Item = (&'a [u32], &'a [u64])>,
) -> Vec<JoinTotals> {
    let dimension: HashMap<u32, ()> = dimension_keys.iter().map(|&k| (k, ())).collect();
    chunks
        .map(|(keys, values)| {
            let mut totals = JoinTotals::default();
            for (key, value) in keys.iter().zip(values) {
                if dimension.contains_key(key) {
                    totals.matches += 1;
                    totals.aggregate += value;
                }
            }
            totals
        })
        .collect()
}

/// One join (or join chunk) result against the oracle.
pub fn check_join(report: &mut Report, got: JoinTotals, want: JoinTotals) {
    if got != want {
        eprintln!("join mismatch: got {got:?}, oracle {want:?}");
    }
    report.op(got == want);
}

/// What a probe batch's selection says about keys of known membership.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeTally {
    pub false_negatives: u64,
    pub false_positives: u64,
    pub absent: u64,
}

/// Compare a batch selection (positions below `len`) with the known
/// membership of the probed positions: bit `p` of `present` is set when
/// position `p` holds a live key. Works a word of positions at a time, so
/// the check stays a small share of the probe it checks.
pub fn tally_probe(sel: &[u32], len: usize, present: &[u64]) -> ProbeTally {
    let words = len.div_ceil(64);
    assert!(present.len() >= words, "membership bitmap too short");
    let mut hit = vec![0u64; words];
    for &p in sel {
        hit[p as usize / 64] |= 1 << (p % 64);
    }
    let mut tally = ProbeTally::default();
    for (w, (&h, &live)) in hit.iter().zip(present).enumerate() {
        let bits = (len - w * 64).min(64);
        let mask = if bits == 64 {
            u64::MAX
        } else {
            (1 << bits) - 1
        };
        let live = live & mask;
        tally.false_negatives += u64::from((live & !h).count_ones());
        tally.false_positives += u64::from((h & !live).count_ones());
        tally.absent += u64::from(bits as u32 - live.count_ones());
    }
    tally
}

/// Membership bitmap for `len` positions that all hold live keys.
pub fn all_present(len: usize) -> Vec<u64> {
    vec![u64::MAX; len.div_ceil(64)]
}

/// Membership bitmap for `len` positions where even positions hold live keys
/// and odd positions absent ones.
pub fn even_present(len: usize) -> Vec<u64> {
    vec![0x5555_5555_5555_5555; len.div_ceil(64)]
}

/// Check one probe batch: any false negative is a wrong answer.
pub fn check_probe(report: &mut Report, tally: ProbeTally) {
    if tally.false_negatives > 0 {
        eprintln!("{} false negatives in a probe batch", tally.false_negatives);
    }
    report.op(tally.false_negatives == 0);
}

/// Look up every key of `keys` through `contains` inside one span named
/// `span`, collecting the positions that test positive into `sel`; returns
/// the block's wall time in seconds.
pub fn point_block(
    report: &mut Report,
    span: &'static str,
    keys: &[u32],
    sel: &mut SelectionVector,
    contains: impl Fn(u32) -> bool,
) -> f64 {
    sel.clear();
    let start = Instant::now();
    let id = report.tracer.begin(span);
    for (p, &key) in keys.iter().enumerate() {
        sel.push_if(p as u32, contains(key));
    }
    report.tracer.end(id);
    start.elapsed().as_secs_f64()
}

/// Every live key must test positive through the batch path and the point
/// path, and the program's key count must equal the oracle's. One checked
/// operation per batch of `batch` keys, one per point-lookup block of the
/// same size, and one for the key count.
pub fn verify_live(
    report: &mut Report,
    live: &[u32],
    batch: usize,
    mut probe_batch: impl FnMut(&[u32], &mut SelectionVector),
    point: impl Fn(u32) -> bool,
    key_count: usize,
) {
    let mut sel = SelectionVector::with_capacity(batch);
    let present = all_present(batch);
    for keys in live.chunks(batch) {
        sel.clear();
        let id = report.tracer.begin("verify.probe");
        probe_batch(keys, &mut sel);
        report.tracer.end(id);
        check_probe(report, tally_probe(sel.as_slice(), keys.len(), &present));
    }
    for keys in live.chunks(batch) {
        point_block(report, "verify.contains", keys, &mut sel, &point);
        check_probe(report, tally_probe(sel.as_slice(), keys.len(), &present));
    }
    if key_count != live.len() {
        eprintln!("key_count() = {key_count}, oracle holds {}", live.len());
    }
    report.op(key_count == live.len());
}

#[cfg(test)]
mod tests {
    //! Each check must fire: fed one deliberately wrong input, the run
    //! counts a failed operation and reports itself incorrect.
    use super::*;
    use pof_filter::Filter;
    use pof_store::StoreBuilder;

    fn report() -> Report {
        Report::new(false)
    }

    #[test]
    fn join_check_fires_on_one_dropped_match() {
        let dimension = [1u32, 2, 3];
        let facts = [1u32, 5, 2, 9, 3, 3];
        let values = [10u64, 20, 30, 40, 50, 60];
        let want = oracle_join(&dimension, std::iter::once((&facts[..], &values[..])))[0];
        assert_eq!(
            want,
            JoinTotals {
                matches: 4,
                aggregate: 150
            }
        );
        let mut r = report();
        check_join(&mut r, want, want);
        assert_eq!((r.attempted, r.failed), (1, 0));
        let dropped = JoinTotals {
            matches: want.matches - 1,
            aggregate: want.aggregate - 60,
        };
        check_join(&mut r, dropped, want);
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(r.wrong);
    }

    #[test]
    fn live_key_check_fires_when_the_oracle_holds_a_key_the_store_lacks() {
        let store = StoreBuilder::new().shards(4).expected_keys(1024).build();
        let keys: Vec<u32> = (0..1000u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        store.insert_batch(&keys);
        let snapshot = store.snapshot();
        let mut r = report();
        verify_live(
            &mut r,
            &keys,
            256,
            |k, sel| snapshot.contains_batch(k, sel),
            |k| store.contains(k),
            store.key_count(),
        );
        assert_eq!(r.failed, 0);
        assert!(!r.wrong);
        // One key the store never saw (and, with this filter, rejects).
        let extra = (1u32..)
            .map(|i| i.wrapping_mul(0x9E37_79B1) | 1)
            .find(|&k| !store.contains(k) && !keys.contains(&k))
            .unwrap();
        let mut oracle = keys.clone();
        oracle.push(extra);
        let mut r = report();
        verify_live(
            &mut r,
            &oracle,
            256,
            |k, sel| snapshot.contains_batch(k, sel),
            |k| store.contains(k),
            store.key_count(),
        );
        // The batch containing the extra key, its point-lookup block, and
        // the key count all fail.
        assert_eq!(r.failed, 3);
        assert!(r.wrong);
    }

    #[test]
    fn probe_check_fires_on_one_false_negative() {
        // Positions 0, 2, 4 are present; the program returned 0, 1, 2, 4.
        let present = [0b01_0101u64];
        let good = tally_probe(&[0, 1, 2, 4], 6, &present);
        assert_eq!(
            good,
            ProbeTally {
                false_negatives: 0,
                false_positives: 1,
                absent: 3
            }
        );
        let mut r = report();
        check_probe(&mut r, good);
        assert_eq!(r.failed, 0);
        // Drop position 2: one false negative.
        let bad = tally_probe(&[0, 1, 4], 6, &present);
        assert_eq!(bad.false_negatives, 1);
        check_probe(&mut r, bad);
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(r.wrong);
    }

    #[test]
    fn tally_counts_across_words_and_a_partial_last_word() {
        let len = 130;
        let present = even_present(len);
        // Every even position plus positions 1 and 129 (absent).
        let mut sel: Vec<u32> = (0..len as u32).step_by(2).collect();
        sel.extend([1, 129]);
        let tally = tally_probe(&sel, len, &present);
        assert_eq!(
            tally,
            ProbeTally {
                false_negatives: 0,
                false_positives: 2,
                absent: 65
            }
        );
        assert_eq!(
            tally_probe(&[], len, &all_present(len)).false_negatives,
            130
        );
    }
}
