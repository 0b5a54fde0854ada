//! Causal lifecycle spans: one span tree per deployment.
//!
//! The flat tracer answers "what happened when"; the span store answers
//! "what happened to *this deployment*". Every admitted deployment gets
//! a four-node tree keyed by its deployment id:
//!
//! ```text
//! lifecycle (root)                arrival .. finish
//! ├── queue                       arrival .. admission tick
//! ├── decision (zero-width)       the policy ruling + lane
//! └── resident                    admission .. finish, watcher samples
//! ```
//!
//! Span ids are derived from the deployment id (`id * 4 + phase`), so
//! the tree is reconstructible from any single line and ids never
//! depend on ring state. All timestamps are **sim clock**, so the
//! export (`spans.jsonl`, see [`crate::export::to_jsonl_spans`]) is
//! byte-identical across same-seed runs, worker counts and engine
//! cores — the same contract the flat exports carry.
//!
//! Closed records live in a bounded ring with an explicit drop counter
//! (the meta line reports it), so a million-arrival run stays bounded.

use std::collections::{BTreeMap, VecDeque};

/// Child-phase offsets inside one deployment's span-id block.
pub mod phase {
    /// Root span offset: the whole lifecycle.
    pub const LIFECYCLE: u64 = 0;
    /// Queue-wait child: raw arrival to admission tick.
    pub const QUEUE: u64 = 1;
    /// Decision child: zero-width, carries the rule and the lane.
    pub const DECISION: u64 = 2;
    /// Residency child: admission to finish, carries the sample count.
    pub const RESIDENT: u64 = 3;
}

/// One deployment's complete (closed) lifecycle record.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleSpan {
    /// The deployment id the tree is keyed by.
    pub deployment_id: u64,
    /// Application name (interned).
    pub app: &'static str,
    /// Workload class tag (e.g. `"BE"` / `"LC"`).
    pub class: &'static str,
    /// Chosen memory mode tag (`"local"` / `"remote"`).
    pub mode: &'static str,
    /// The decision rule tag that fired (see `DecisionRule::tag`).
    pub rule: &'static str,
    /// The decision lane (`"fast"` / `"slow"` / `"direct"` /
    /// `"forced"`).
    pub lane: &'static str,
    /// Raw scheduled arrival instant, sim seconds.
    pub arrived_s: f64,
    /// Admission instant (the decision tick), sim seconds.
    pub decided_s: f64,
    /// Engine tick counter at admission.
    pub opened_tick: u64,
    /// Completion (or drain) instant, sim seconds.
    pub finished_s: f64,
    /// Watcher samples elapsed while resident.
    pub samples: u64,
    /// Whether the run ended before the deployment finished.
    pub drained: bool,
}

impl LifecycleSpan {
    /// The root span id of this deployment's tree.
    pub fn root_id(&self) -> u64 {
        self.deployment_id * 4 + phase::LIFECYCLE
    }
}

/// Bounded store of per-deployment lifecycle span trees.
///
/// Spans open at admission, close at completion (or get force-closed as
/// `drained` at run end). Closed records are retained newest-last in a
/// ring of `capacity` records; overflow evicts the oldest and bumps the
/// drop counter.
#[derive(Debug, Clone)]
pub struct SpanStore {
    enabled: bool,
    capacity: usize,
    open: BTreeMap<u64, LifecycleSpan>,
    closed: VecDeque<LifecycleSpan>,
    dropped: u64,
    id_horizon: u64,
}

impl SpanStore {
    /// Creates a store retaining at most `capacity` closed records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, enabled: bool) -> Self {
        assert!(capacity > 0, "span capacity must be positive");
        Self {
            enabled,
            capacity,
            open: BTreeMap::new(),
            closed: VecDeque::new(),
            dropped: 0,
            id_horizon: 0,
        }
    }

    /// Whether lifecycle recording is switched on (the
    /// `ObsConfig::record_spans` gate).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Maximum retained closed records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Closed records evicted due to ring overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained closed records.
    pub fn len(&self) -> usize {
        self.closed.len()
    }

    /// Whether no closed records are retained.
    pub fn is_empty(&self) -> bool {
        self.closed.is_empty()
    }

    /// One past the largest deployment id ever opened (`0` when none
    /// was). Every engine run numbers its deployments from 0, so an
    /// observer that records several runs offsets each run's ids by
    /// this value to keep span ids and trace tracks unique.
    pub fn id_horizon(&self) -> u64 {
        self.id_horizon
    }

    /// Deployments admitted but not yet closed.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Opens a deployment's tree at admission. The finish fields of
    /// `span` are placeholders until [`SpanStore::close`]. No-op when
    /// recording is disabled.
    pub fn open(&mut self, span: LifecycleSpan) {
        if !self.enabled {
            return;
        }
        self.id_horizon = self.id_horizon.max(span.deployment_id + 1);
        self.open.insert(span.deployment_id, span);
    }

    /// Closes a deployment's tree: stamps the finish instant and the
    /// elapsed sample count, then moves the record into the closed
    /// ring. Unknown ids (or disabled recording) are ignored.
    pub fn close(&mut self, deployment_id: u64, finished_s: f64, closed_tick: u64, drained: bool) {
        let Some(mut span) = self.open.remove(&deployment_id) else {
            return;
        };
        span.finished_s = finished_s;
        span.samples = closed_tick.saturating_sub(span.opened_tick);
        span.drained = drained;
        if self.closed.len() == self.capacity {
            self.closed.pop_front();
            self.dropped += 1;
        }
        self.closed.push_back(span);
    }

    /// Force-closes every still-open tree as drained (run end), in
    /// deployment-id order.
    pub fn drain_open(&mut self, finished_s: f64, closed_tick: u64) {
        while let Some(id) = self.open.keys().next().copied() {
            self.close(id, finished_s, closed_tick, true);
        }
    }

    /// Closed records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &LifecycleSpan> {
        self.closed.iter()
    }
}

impl Default for SpanStore {
    fn default() -> Self {
        Self::new(65_536, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, arrived: f64, decided: f64) -> LifecycleSpan {
        LifecycleSpan {
            deployment_id: id,
            app: "gmm",
            class: "be",
            mode: "local",
            rule: "static",
            lane: "direct",
            arrived_s: arrived,
            decided_s: decided,
            opened_tick: decided as u64,
            finished_s: 0.0,
            samples: 0,
            drained: false,
        }
    }

    #[test]
    fn open_close_produces_one_record_with_sample_count() {
        let mut store = SpanStore::new(8, true);
        store.open(span(3, 1.2, 2.0));
        assert_eq!(store.open_count(), 1);
        store.close(3, 40.0, 40, false);
        assert_eq!(store.open_count(), 0);
        let rec = store.records().next().unwrap();
        assert_eq!(rec.deployment_id, 3);
        assert_eq!(rec.finished_s, 40.0);
        assert_eq!(rec.samples, 38);
        assert!(!rec.drained);
        assert_eq!(rec.root_id(), 12);
    }

    #[test]
    fn ring_overflow_evicts_oldest_and_counts_drops() {
        let mut store = SpanStore::new(2, true);
        for id in 0..4u64 {
            store.open(span(id, id as f64, id as f64));
            store.close(id, 10.0, 10, false);
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.dropped(), 2);
        let ids: Vec<u64> = store.records().map(|r| r.deployment_id).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn drain_open_closes_in_deployment_id_order() {
        let mut store = SpanStore::new(8, true);
        for id in [5u64, 1, 3] {
            store.open(span(id, 0.0, 0.0));
        }
        store.drain_open(99.0, 99);
        let recs: Vec<_> = store.records().collect();
        assert_eq!(
            recs.iter().map(|r| r.deployment_id).collect::<Vec<_>>(),
            vec![1, 3, 5]
        );
        assert!(recs.iter().all(|r| r.drained && r.finished_s == 99.0));
    }

    #[test]
    fn disabled_store_records_nothing() {
        let mut store = SpanStore::new(8, false);
        store.open(span(1, 0.0, 0.0));
        store.close(1, 5.0, 5, false);
        assert!(store.is_empty());
        assert_eq!(store.open_count(), 0);
        assert!(!store.enabled());
    }

    #[test]
    fn closing_an_unknown_id_is_a_no_op() {
        let mut store = SpanStore::new(8, true);
        store.close(42, 1.0, 1, false);
        assert!(store.is_empty());
        assert_eq!(store.dropped(), 0);
    }

    #[test]
    #[should_panic(expected = "span capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = SpanStore::new(0, true);
    }
}
