//! `tiered_churn`: a memory-only 2-level `TieredStore` whose levels the
//! advisor chooses — a hot level (t_w = 32 cycles, delete rate 0.4) in front
//! of a cold level (t_w = 16e6 cycles) preloaded in set-up. One thread
//! repeats a step: insert a batch of new keys, delete the batch inserted
//! `LAG` steps earlier, and probe a batch of resident and absent keys (a
//! share of them also through `contains`). `SizeRatio` compactions fire
//! inside the inserts. Reads and writes share the thread, so a write-path
//! change that stalls reads shows here. Every `SETUP_EVERY` steps a freshly
//! built store takes over and the churn starts again from its preload.

use crate::check::{check_probe, even_present, point_block, tally_probe, verify_live};
use crate::common::{median, peak_rss_mib, quantile, KeySpace, Report, Rng, Setups};
use pof_filter::SelectionVector;
use pof_store::{LevelSpec, ProbeScratch, TieredProbeScratch, TieredStore, TieredStoreBuilder};
use std::collections::VecDeque;
use std::time::Instant;

/// Keys the hot level is sized for; it spills into the cold level past this.
pub const HOT_KEYS: u64 = 1 << 12;
/// Keys the cold level is sized for, and preloaded with in set-up. Both
/// levels' key sets, which every write scans, stay well inside one core's
/// L2 together with the filters the probes read.
pub const COLD_KEYS: u64 = 1 << 15;
/// The cold level's delete share of writes, as the workload's traffic has it.
pub const COLD_DELETE_RATE: f64 = 0.5;
pub const WRITE_BATCH: usize = 512;
/// A batch is deleted this many steps after its insert: twice the batches
/// the hot level holds, so it has been compacted into the cold level by then.
pub const LAG: usize = 2 * HOT_KEYS as usize / WRITE_BATCH;
pub const PROBE_BATCH: usize = 4096;
/// Of each probe batch, keys at even positions are live and keys at odd
/// positions absent.
fn probe_present(position: usize) -> bool {
    position.is_multiple_of(2)
}
/// Probe-batch keys also looked up through `contains`, per step.
const POINT_KEYS: usize = 512;
/// Steps between full live-set verifications.
const VERIFY_EVERY: usize = 256;
/// Set-ups before the timed phase; one more follows every `SETUP_EVERY`
/// steps inside it, and the steps after it churn the new store from its
/// preloaded state again. `setup_s` is the median of them all.
const SETUPS: usize = 3;
const SETUP_EVERY: usize = 2 * VERIFY_EVERY;

fn build(space: KeySpace) -> TieredStore {
    let store = TieredStoreBuilder::new()
        .level(LevelSpec {
            expected_keys: HOT_KEYS,
            work_saved_cycles: 32.0,
            delete_rate: 0.4,
            ..LevelSpec::default()
        })
        // Every batch is deleted after it has been compacted into the cold
        // level, so the cold level sees as many deletes as inserts.
        .level(LevelSpec {
            expected_keys: COLD_KEYS,
            work_saved_cycles: 16e6,
            delete_rate: COLD_DELETE_RATE,
            ..LevelSpec::default()
        })
        .build();
    let preload: Vec<u32> = (0..COLD_KEYS as u32).map(|i| space.present(i)).collect();
    store.load_level(1, &preload);
    store
}

/// The oracle: the preloaded cold keys (never deleted) plus the batches
/// inserted in the last `LAG` steps, each a run of consecutive key indices.
struct Live {
    space: KeySpace,
    batches: VecDeque<u32>,
    next_index: u32,
}

impl Live {
    fn new(space: KeySpace) -> Self {
        Self {
            space,
            batches: VecDeque::new(),
            next_index: COLD_KEYS as u32,
        }
    }

    fn batch_keys(&self, first: u32, out: &mut Vec<u32>) {
        out.clear();
        out.extend((first..first + WRITE_BATCH as u32).map(|i| self.space.present(i)));
    }

    fn len(&self) -> usize {
        COLD_KEYS as usize + self.batches.len() * WRITE_BATCH
    }

    fn all(&self) -> Vec<u32> {
        let mut keys: Vec<u32> = (0..COLD_KEYS as u32)
            .map(|i| self.space.present(i))
            .collect();
        for &first in &self.batches {
            keys.extend((first..first + WRITE_BATCH as u32).map(|i| self.space.present(i)));
        }
        keys
    }

    /// A uniformly drawn live key.
    fn sample(&self, rng: &mut Rng) -> u32 {
        let i = rng.below(self.len() as u64) as usize;
        let index = if i < COLD_KEYS as usize {
            i as u32
        } else {
            let j = i - COLD_KEYS as usize;
            self.batches[j / WRITE_BATCH] + (j % WRITE_BATCH) as u32
        };
        self.space.present(index)
    }
}

#[derive(Default)]
struct Tallies {
    write_batch_s: Vec<f64>,
    step_write_s: Vec<f64>,
    probe_batch_s: Vec<f64>,
    point_block_s: Vec<f64>,
    false_positives: u64,
    absent: u64,
    snapshot_ns: Vec<f64>,
    level0_ns_per_key: Vec<f64>,
    level1_ns_per_key: Vec<f64>,
    probe_keys: u64,
    cascaded_keys: u64,
    clone_us: Vec<f64>,
    delete_us: Vec<f64>,
    compaction_batch_ms: Vec<f64>,
}

pub fn run(report: &mut Report, seed: u64, seconds: f64) {
    let space = KeySpace::new(seed);
    let mut setups = Setups::default();
    let mut store = setups.repeat(SETUPS, || build(space));
    let tracing = report.tracer.on();

    let mut live = Live::new(space);
    let mut rng = Rng::new(seed ^ 0x71E2);
    let mut absent_index = 0u32;
    let mut batch = Vec::with_capacity(WRITE_BATCH);
    let mut probe = Vec::with_capacity(PROBE_BATCH);
    let mut sel = SelectionVector::with_capacity(PROBE_BATCH);
    let mut scratch = TieredProbeScratch::new();
    let mut level_scratch = ProbeScratch::new();
    let mut level_sel = SelectionVector::with_capacity(PROBE_BATCH);
    let mut misses = Vec::with_capacity(PROBE_BATCH);
    let mut t = Tallies::default();
    let present = even_present(PROBE_BATCH);
    let mut point_sel = SelectionVector::with_capacity(POINT_KEYS);
    let mut compactions = store.stats().compactions;
    // Compactions and rebuilds of the stores already replaced.
    let (mut past_compactions, mut past_rebuilds) = (0u64, 0u64);

    report.start_timed_phase(seconds);
    let mut step = 0usize;
    // Whole verification periods, so every run checks the same share.
    while step == 0 || !step.is_multiple_of(VERIFY_EVERY) || !report.expired() {
        if step > 0 && step.is_multiple_of(SETUP_EVERY) {
            let stats = store.stats();
            past_compactions += stats.compactions;
            past_rebuilds += stats.total_rebuilds();
            // The old store goes first, so memory holds one at a time.
            drop(store);
            store = setups.time(|| build(space));
            live = Live::new(space);
            compactions = store.stats().compactions;
        }
        let phase = report.tracer.begin("phase.step");
        // Insert a batch of new keys.
        live.batch_keys(live.next_index, &mut batch);
        let start = Instant::now();
        let id = report.tracer.begin("tiered.insert_batch");
        store.insert_batch(&batch);
        let insert_ns = report.tracer.end(id);
        let insert_s = start.elapsed().as_secs_f64();
        t.write_batch_s.push(insert_s);
        live.batches.push_back(live.next_index);
        live.next_index += WRITE_BATCH as u32;
        if tracing {
            let now = store.stats().compactions;
            if now > compactions {
                t.compaction_batch_ms.push(insert_ns as f64 / 1e6);
                compactions = now;
            }
            let id = report.tracer.begin("store.publish_clone");
            let snapshot = store.level_store(0).snapshot();
            for shard in 0..snapshot.shard_count() {
                std::hint::black_box(snapshot.shard_filter(shard).read_only_clone());
            }
            t.clone_us.push(report.tracer.end(id) as f64 / 1e3);
        }
        report.op(true);

        // Delete the batch inserted LAG steps ago. A step's write time counts
        // once the store has churned that far.
        if live.batches.len() > LAG {
            let first = live.batches.pop_front().expect("more than LAG batches");
            live.batch_keys(first, &mut batch);
            let start = Instant::now();
            let id = report.tracer.begin("tiered.delete_batch");
            let removed = store.delete_batch(&batch);
            let ns = report.tracer.end(id);
            let delete_s = start.elapsed().as_secs_f64();
            t.write_batch_s.push(delete_s);
            t.step_write_s.push(insert_s + delete_s);
            t.delete_us.push(ns as f64 / 1e3);
            report.op(removed == WRITE_BATCH);
        }

        // Probe resident and absent keys.
        probe.clear();
        for p in 0..PROBE_BATCH {
            probe.push(if probe_present(p) {
                live.sample(&mut rng)
            } else {
                absent_index = (absent_index + 1) & 0x7FFF_FFFF;
                space.absent(absent_index)
            });
        }
        sel.clear();
        let start = Instant::now();
        let id = report.tracer.begin("tiered.contains_batch");
        store.contains_batch_with(&probe, &mut sel, &mut scratch);
        report.tracer.end(id);
        t.probe_batch_s.push(start.elapsed().as_secs_f64());
        let tally = tally_probe(sel.as_slice(), probe.len(), &present);
        t.false_positives += tally.false_positives;
        t.absent += tally.absent;
        check_probe(report, tally);

        let points = &probe[..POINT_KEYS];
        let contains = |k| store.contains(k);
        let wall = point_block(report, "tiered.contains", points, &mut point_sel, contains);
        t.point_block_s.push(wall);
        check_probe(
            report,
            tally_probe(point_sel.as_slice(), POINT_KEYS, &present),
        );

        if tracing {
            attribute_levels(
                report,
                &store,
                &probe,
                &mut t,
                &mut level_sel,
                &mut level_scratch,
                &mut misses,
            );
        }
        report.tracer.end(phase);

        step += 1;
        if step.is_multiple_of(VERIFY_EVERY) {
            let phase = report.tracer.begin("phase.verify");
            let keys = live.all();
            verify_live(
                report,
                &keys,
                PROBE_BATCH,
                |k, s| store.contains_batch_with(k, s, &mut scratch),
                |k| store.contains(k),
                store.key_count(),
            );
            report.tracer.end(phase);
        }
    }

    let stats = store.stats();
    report.e2e("setup_s", setups.median_s());
    report.e2e(
        "throughput_per_s",
        (2 * WRITE_BATCH) as f64 / median(&t.step_write_s),
    );
    report.e2e(
        "lookup_keys_per_s",
        PROBE_BATCH as f64 / median(&t.probe_batch_s),
    );
    report.e2e(
        "point_lookups_per_s",
        POINT_KEYS as f64 / median(&t.point_block_s),
    );
    report.e2e("bits_per_key", stats.bits_per_live_key());
    report.e2e("fpr", t.false_positives as f64 / t.absent as f64);
    report.e2e("peak_rss_mib", peak_rss_mib());

    if tracing {
        report.layer("write.batch_ms_p50", median(&t.write_batch_s) * 1e3);
        report.layer("write.batch_ms_p99", quantile(&t.write_batch_s, 0.99) * 1e3);
        report.layer("store.snapshot_ns", median(&t.snapshot_ns));
        report.layer(
            "tiered.level0_probe_ns_per_key",
            median(&t.level0_ns_per_key),
        );
        report.layer(
            "tiered.level1_probe_ns_per_key",
            median(&t.level1_ns_per_key),
        );
        report.layer(
            "tiered.cascade_share",
            t.cascaded_keys as f64 / t.probe_keys as f64,
        );
        if !t.compaction_batch_ms.is_empty() {
            report.layer("tiered.compaction_batch_ms", median(&t.compaction_batch_ms));
        }
        report.layer(
            "tiered.compactions",
            (past_compactions + stats.compactions) as f64,
        );
        report.layer("store.publish_clone_us", median(&t.clone_us));
        report.layer("store.delete_us", median(&t.delete_us));
        report.layer(
            "store.rebuilds",
            (past_rebuilds + stats.total_rebuilds()) as f64,
        );
        let modeled: f64 = stats
            .levels
            .iter()
            .map(|level| level.store.weighted_modeled_fpr())
            .sum();
        report.layer("model.fpr", modeled);
        report.layer(
            "trace.unattributed_share",
            report.tracer.unattributed_share(),
        );
    }
}

/// Per-level read attribution, after the workload's own probe of the same
/// keys: level 0's snapshot and probe, then level 1's probe of the keys that
/// missed level 0 (the ones the cascade hands on).
fn attribute_levels(
    report: &mut Report,
    store: &TieredStore,
    probe: &[u32],
    t: &mut Tallies,
    sel: &mut SelectionVector,
    scratch: &mut ProbeScratch,
    misses: &mut Vec<u32>,
) {
    let tr = &mut report.tracer;
    let id = tr.begin("store.snapshot");
    let level0 = store.level_store(0).snapshot();
    t.snapshot_ns.push(tr.end(id) as f64);
    sel.clear();
    let id = tr.begin("tiered.level0_probe");
    level0.contains_batch_with(probe, sel, scratch);
    t.level0_ns_per_key
        .push(tr.end(id) as f64 / probe.len() as f64);
    misses.clear();
    let mut hits = sel.as_slice().iter().peekable();
    for (p, &key) in probe.iter().enumerate() {
        if hits.next_if(|&&h| h as usize == p).is_none() {
            misses.push(key);
        }
    }
    t.probe_keys += probe.len() as u64;
    t.cascaded_keys += misses.len() as u64;
    if !misses.is_empty() {
        let level1 = store.level_store(1).snapshot();
        sel.clear();
        let id = tr.begin("tiered.level1_probe");
        level1.contains_batch_with(misses, sel, scratch);
        t.level1_ns_per_key
            .push(tr.end(id) as f64 / misses.len() as f64);
    }
}
