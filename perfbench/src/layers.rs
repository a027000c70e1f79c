//! Write-path attribution for the traced run.
//!
//! `ShardedFilterStore::insert_batch` is one call; its layers are timed by
//! repeating each layer's public call on the same keys from the benchmark:
//! routing (`shard_of`), the filter insert (`Filter::insert` into standalone
//! filters built with each shard's configuration and capacity), the publish
//! clone (`AnyFilter::read_only_clone` of each touched shard's published
//! filter) and the WAL append (`WalWriter::append` of each shard's slice to a
//! side segment on the same filesystem). What `insert_batch` spends beyond
//! those four is the store's bookkeeping (key-set dedup and re-sort, policy
//! consults, locking).

use crate::common::Report;
use pof_core::AnyFilter;
use pof_filter::Filter;
use pof_persist::{WalOp, WalWriter};
use pof_store::ShardedFilterStore;
use std::path::Path;

pub struct WriteLayers {
    slices: Vec<Vec<u32>>,
    standalone: Vec<AnyFilter>,
    side_wal: Option<(Vec<WalWriter>, bool)>,
    keys: u64,
    insert_ns: u64,
    route_ns: u64,
    filter_insert_ns: u64,
    clone_ns: u64,
    wal_ns: u64,
    /// Per batch, microseconds.
    clone_us: Vec<f64>,
    wal_us: Vec<f64>,
}

impl WriteLayers {
    /// `capacity_per_shard` and `bits_per_key` as the store was built with;
    /// `side_wal_dir`, when set, receives one side segment per shard,
    /// appended with `sync` like the store's own journal.
    pub fn new(
        store: &ShardedFilterStore,
        capacity_per_shard: usize,
        side_wal_dir: Option<(&Path, bool)>,
    ) -> std::io::Result<Self> {
        let shards = store.shard_count();
        let counting = store.delete_mode() == pof_store::BloomDeleteMode::Counting;
        let standalone = (0..shards)
            .map(|_| {
                let mut f =
                    AnyFilter::build(&store.config(), capacity_per_shard, store.bits_per_key());
                if counting {
                    f.enable_counting();
                }
                f
            })
            .collect();
        let side_wal = match side_wal_dir {
            Some((dir, sync)) => {
                std::fs::create_dir_all(dir)?;
                let wals = (0..shards)
                    .map(|s| WalWriter::create(&dir.join(format!("side-{s:04}.wal"))))
                    .collect::<std::io::Result<Vec<_>>>()?;
                Some((wals, sync))
            }
            None => None,
        };
        Ok(Self {
            slices: vec![Vec::new(); shards],
            standalone,
            side_wal,
            keys: 0,
            insert_ns: 0,
            route_ns: 0,
            filter_insert_ns: 0,
            clone_ns: 0,
            wal_ns: 0,
            clone_us: Vec::new(),
            wal_us: Vec::new(),
        })
    }

    /// Attribute one `insert_batch(keys)` that took `insert_ns`: time the
    /// four layers on the same keys. Call right after the insert, so the
    /// published filters are the ones that batch produced.
    pub fn attribute(
        &mut self,
        report: &mut Report,
        store: &ShardedFilterStore,
        keys: &[u32],
        insert_ns: u64,
    ) -> std::io::Result<()> {
        self.keys += keys.len() as u64;
        self.insert_ns += insert_ns;
        let t = &mut report.tracer;

        let id = t.begin("write.route");
        for slice in &mut self.slices {
            slice.clear();
        }
        for &key in keys {
            self.slices[store.shard_of(key)].push(key);
        }
        self.route_ns += t.end(id);

        let id = t.begin("filter.insert");
        for (filter, slice) in self.standalone.iter_mut().zip(&self.slices) {
            for &key in slice {
                std::hint::black_box(filter.insert(key));
            }
        }
        self.filter_insert_ns += t.end(id);

        let snapshot = store.snapshot();
        let id = t.begin("store.publish_clone");
        for (shard, slice) in self.slices.iter().enumerate() {
            if !slice.is_empty() {
                std::hint::black_box(snapshot.shard_filter(shard).read_only_clone());
            }
        }
        let ns = t.end(id);
        self.clone_ns += ns;
        self.clone_us.push(ns as f64 / 1e3);

        if let Some((wals, sync)) = &mut self.side_wal {
            let id = t.begin("persist.wal_append");
            let mut result = Ok(());
            for (wal, slice) in wals.iter_mut().zip(&self.slices) {
                if !slice.is_empty() && result.is_ok() {
                    result = wal.append(WalOp::Insert, slice, *sync);
                }
            }
            let ns = t.end(id);
            result?;
            self.wal_ns += ns;
            self.wal_us.push(ns as f64 / 1e3);
        }
        Ok(())
    }

    /// Report the write layers (per key, or per batch in microseconds).
    pub fn report(&self, report: &mut Report) {
        let per_key = |ns: u64| ns as f64 / self.keys.max(1) as f64;
        report.layer("write.route_ns_per_key", per_key(self.route_ns));
        report.layer("filter.insert_ns_per_key", per_key(self.filter_insert_ns));
        report.layer(
            "store.publish_clone_us",
            crate::common::median(&self.clone_us),
        );
        if !self.wal_us.is_empty() {
            report.layer("persist.wal_append_us", crate::common::median(&self.wal_us));
        }
        let attributed = self.route_ns + self.filter_insert_ns + self.clone_ns + self.wal_ns;
        report.layer(
            "store.bookkeeping_ns_per_key",
            (self.insert_ns as f64 - attributed as f64) / self.keys.max(1) as f64,
        );
    }
}
