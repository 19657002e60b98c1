//! Reader handles: cheaply cloneable query endpoints over the published
//! snapshots, wait-free in the steady state.

use std::sync::Arc;

use dyntree_primitives::algebra::{Agg, CommutativeMonoid};
use dyntree_primitives::telemetry::Counter;

use crate::ring::{EpochRetired, SnapshotRing};
use crate::snapshot::{Snapshot, Versioned};

/// A query endpoint over the latest published epoch.
///
/// Cheap to clone (two `Arc`s) and `Send + Sync`-composed, so a serving
/// setup hands one to each reader thread.  Every query first catches the
/// cached snapshot up to the latest published epoch — one atomic acquire
/// load in the steady state, one brief ring lock only when the writer has
/// published since the last query — and then answers from the snapshot's
/// frozen arrays, stamping the answer with its epoch.  Queries take
/// `&mut self` solely for that cache refresh; the snapshots themselves are
/// immutable and shared.
#[derive(Clone, Debug)]
pub struct ReadHandle<M: CommutativeMonoid> {
    ring: Arc<SnapshotRing<M>>,
    cache: Arc<Snapshot<M>>,
}

impl<M: CommutativeMonoid> ReadHandle<M> {
    pub(crate) fn new(ring: Arc<SnapshotRing<M>>) -> Self {
        let cache = ring.latest();
        ReadHandle { ring, cache }
    }

    /// Catches the cached snapshot up to the latest published epoch.
    #[inline]
    fn refresh(&mut self) {
        if self.ring.latest_epoch() != self.cache.epoch {
            self.cache = self.ring.latest();
            self.ring.tel().incr(Counter::StaleEpochReads);
        }
    }

    /// The epoch this handle currently reads at (the latest published epoch
    /// as of its last query or refresh).
    pub fn epoch(&self) -> u64 {
        self.cache.epoch
    }

    /// The latest epoch the writer has published (this handle's next query
    /// will read at least this epoch).
    pub fn latest_epoch(&self) -> u64 {
        self.ring.latest_epoch()
    }

    /// Whether `u` and `v` are connected at the latest epoch.
    #[inline]
    pub fn connected(&mut self, u: usize, v: usize) -> Versioned<bool> {
        self.refresh();
        self.ring.tel().incr(Counter::ReaderQueriesServed);
        Versioned {
            value: self.cache.connected(u, v),
            epoch: self.cache.epoch,
        }
    }

    /// Number of vertices in `v`'s component at the latest epoch (out of
    /// range → 0).
    #[inline]
    pub fn component_size(&mut self, v: usize) -> Versioned<u64> {
        self.refresh();
        self.ring.tel().incr(Counter::ReaderQueriesServed);
        Versioned {
            value: self.cache.component_size(v),
            epoch: self.cache.epoch,
        }
    }

    /// Monoid aggregate over `v`'s component at the latest epoch (`None`
    /// when out of range).
    #[inline]
    pub fn component_agg(&mut self, v: usize) -> Versioned<Option<Agg<M>>> {
        self.refresh();
        self.ring.tel().incr(Counter::ReaderQueriesServed);
        Versioned {
            value: self.cache.component_agg(v),
            epoch: self.cache.epoch,
        }
    }

    /// Pins the latest published epoch: the returned reader keeps answering
    /// at that epoch no matter how many newer ones the writer publishes.
    pub fn pin(&mut self) -> PinnedReader<M> {
        self.refresh();
        PinnedReader {
            ring: Arc::clone(&self.ring),
            snap: Arc::clone(&self.cache),
        }
    }

    /// Pins a specific epoch, if the ring still retains it.  Evicted (or
    /// never-published) epochs are a typed [`EpochRetired`] error — never a
    /// silently different epoch's answers.
    pub fn at(&self, epoch: u64) -> Result<PinnedReader<M>, EpochRetired> {
        self.ring.at(epoch).map(|snap| PinnedReader {
            ring: Arc::clone(&self.ring),
            snap,
        })
    }

    /// The latest published snapshot itself, for bulk read-side work that
    /// wants to index the frozen arrays directly.
    pub fn snapshot(&mut self) -> Arc<Snapshot<M>> {
        self.refresh();
        Arc::clone(&self.cache)
    }
}

/// A reader pinned to one epoch: its `Arc` keeps that snapshot alive even
/// after the ring evicts it, so answers stay consistent for as long as the
/// pin is held.  Queries take `&self` — a pinned reader never refreshes.
#[derive(Clone, Debug)]
pub struct PinnedReader<M: CommutativeMonoid> {
    ring: Arc<SnapshotRing<M>>,
    snap: Arc<Snapshot<M>>,
}

impl<M: CommutativeMonoid> PinnedReader<M> {
    /// The pinned epoch.
    pub fn epoch(&self) -> u64 {
        self.snap.epoch
    }

    /// Whether `u` and `v` are connected at the pinned epoch.
    #[inline]
    pub fn connected(&self, u: usize, v: usize) -> Versioned<bool> {
        self.ring.tel().incr(Counter::ReaderQueriesServed);
        Versioned {
            value: self.snap.connected(u, v),
            epoch: self.snap.epoch,
        }
    }

    /// Number of vertices in `v`'s component at the pinned epoch.
    #[inline]
    pub fn component_size(&self, v: usize) -> Versioned<u64> {
        self.ring.tel().incr(Counter::ReaderQueriesServed);
        Versioned {
            value: self.snap.component_size(v),
            epoch: self.snap.epoch,
        }
    }

    /// Monoid aggregate over `v`'s component at the pinned epoch.
    #[inline]
    pub fn component_agg(&self, v: usize) -> Versioned<Option<Agg<M>>> {
        self.ring.tel().incr(Counter::ReaderQueriesServed);
        Versioned {
            value: self.snap.component_agg(v),
            epoch: self.snap.epoch,
        }
    }

    /// The pinned snapshot itself.
    pub fn snapshot(&self) -> &Snapshot<M> {
        &self.snap
    }
}
