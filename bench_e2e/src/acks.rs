//! Submit→ack matching from outside the system.
//!
//! Each event's shard is known before it is submitted (routed once at
//! set-up with `ShardedDurable::route`). A shard acks its records in
//! submission order, one group-commit batch at a time, and every batch
//! adds its size to that shard's `wal_group_records` counter. So after
//! every `ingest_event`/`poll`/`flush`, the counter's growth says how
//! many of the shard's oldest unacked events just became durable.

use dbaugur_shard::ShardedDurable;
use std::collections::VecDeque;

/// Per-shard FIFO of submitted, not yet acked event ids.
pub(crate) struct AckTracker {
    fifo: Vec<VecDeque<usize>>,
    seen: Vec<u64>,
}

impl AckTracker {
    /// Start tracking at the store's current counters.
    pub fn new(store: &ShardedDurable) -> Self {
        let n = store.num_shards();
        Self {
            fifo: vec![VecDeque::new(); n],
            seen: (0..n)
                .map(|i| store.durability(i).wal_group_records)
                .collect(),
        }
    }

    /// Event `id` was handed to `shard`.
    pub fn submitted(&mut self, shard: usize, id: usize) {
        self.fifo[shard].push_back(id);
    }

    /// Append to `out` every event acked since the last call. Returns
    /// false when a shard reports more acks than it has events waiting,
    /// which means the attribution no longer holds.
    pub fn collect(&mut self, store: &ShardedDurable, out: &mut Vec<usize>) -> bool {
        let mut consistent = true;
        for (shard, fifo) in self.fifo.iter_mut().enumerate() {
            let now = store.durability(shard).wal_group_records;
            let delta = (now - self.seen[shard]) as usize;
            self.seen[shard] = now;
            if delta > fifo.len() {
                consistent = false;
            }
            out.extend(fifo.drain(..delta.min(fifo.len())));
        }
        consistent
    }

    /// Oldest unacked event on `shard`.
    pub fn oldest(&self, shard: usize) -> Option<usize> {
        self.fifo[shard].front().copied()
    }

    /// Submitted events not yet acked, over all shards.
    pub fn pending(&self) -> usize {
        self.fifo.iter().map(VecDeque::len).sum()
    }

    /// Number of shards tracked.
    pub fn shards(&self) -> usize {
        self.fifo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbaugur::{DbAugurConfig, DynVfs, FlushReport, GroupCommitConfig, MemVfs};
    use std::path::Path;
    use std::sync::Arc;

    /// What the flush reports say was acked: per shard, the next
    /// `records` submitted ids, whose WAL sequences must start at
    /// `first_seq`.
    struct Expected {
        submitted: Vec<Vec<usize>>,
        acked: Vec<usize>,
        next_seq: Vec<u64>,
    }

    impl Expected {
        fn apply(&mut self, shard: usize, r: FlushReport, out: &mut Vec<usize>) {
            let start = self.acked[shard];
            assert_eq!(
                r.first_seq, self.next_seq[shard],
                "batches are contiguous per shard"
            );
            out.extend(&self.submitted[shard][start..start + r.records]);
            self.acked[shard] += r.records;
            self.next_seq[shard] += r.records as u64;
        }
    }

    fn sorted(mut v: Vec<usize>) -> Vec<usize> {
        v.sort_unstable();
        v
    }

    #[test]
    fn attribution_matches_flush_reports() {
        let vfs: DynVfs = Arc::new(MemVfs::new());
        let mut cfg = DbAugurConfig {
            shards: 2,
            ..DbAugurConfig::default()
        };
        cfg.fast();
        let mut store = ShardedDurable::open_with_vfs(&vfs, Path::new("/acks"), cfg).expect("open");
        store.stream_enable(GroupCommitConfig {
            max_records: 4,
            max_delay_us: 1_000,
        });
        let mut tracker = AckTracker::new(&store);
        let mut want = Expected {
            submitted: vec![Vec::new(); 2],
            acked: vec![0; 2],
            next_seq: vec![1; 2],
        };
        let (mut size_flushes, mut timer_flushes, mut barrier_flushes) = (0, 0, 0);
        let mut now_us = 0u64;
        for id in 0..200usize {
            // Bursts fill batches (size-triggered); gaps let the timer fire.
            now_us += if id % 25 < 20 { 10 } else { 700 };
            let sql = format!("SELECT c{} FROM t{} WHERE k = {id}", id % 5, id % 7);
            let shard = store.route(&sql);
            tracker.submitted(shard, id);
            want.submitted[shard].push(id);
            let (routed, report) = store
                .stream_submit(now_us, id as u64, &sql)
                .expect("submit");
            assert_eq!(routed, shard);
            let mut expect = Vec::new();
            if let Some(r) = report {
                if r.records == 4 {
                    size_flushes += 1;
                }
                want.apply(shard, r, &mut expect);
            }
            if id % 3 == 0 {
                for (s, r) in store.stream_poll(now_us).expect("poll") {
                    timer_flushes += 1;
                    want.apply(s, r, &mut expect);
                }
            }
            let mut got = Vec::new();
            assert!(tracker.collect(&store, &mut got));
            assert_eq!(sorted(got), sorted(expect), "after event {id}");
        }
        let mut expect = Vec::new();
        for (s, r) in store.stream_flush_all().expect("barrier") {
            assert!(r.forced);
            barrier_flushes += 1;
            want.apply(s, r, &mut expect);
        }
        let mut got = Vec::new();
        assert!(tracker.collect(&store, &mut got));
        assert_eq!(sorted(got), sorted(expect), "final barrier");
        assert_eq!(tracker.pending(), 0);
        assert!(size_flushes > 0 && timer_flushes > 0 && barrier_flushes > 0);
    }
}
