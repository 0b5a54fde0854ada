//! The metrics registry: named counters, gauges and quantile sketches.
//!
//! Components register metrics under dotted names (`sim.steps`,
//! `orchestrator.decisions.local`, `predictor.system.epoch_loss`).
//! Storage is `BTreeMap`-backed so every export iterates in a stable
//! order — a prerequisite for byte-identical JSONL across runs.
//!
//! Every distribution is a [`Sketch`]: one global log-bucket layout
//! with a fixed relative width, so there is no bucket choice to make
//! and merging two sketches is exact whatever their origin.

use std::collections::BTreeMap;

use crate::sketch::Sketch;

/// The metrics registry.
///
/// # Examples
///
/// ```
/// use adrias_obs::registry::Registry;
///
/// let mut reg = Registry::new();
/// reg.counter_add("sim.steps", 1);
/// reg.gauge_set("engine.end_time_s", 720.0);
/// reg.observe("sim.slowdown", 1.8);
/// assert_eq!(reg.counter("sim.steps"), 1);
/// assert_eq!(reg.sketch("sim.slowdown").unwrap().count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    sketches: BTreeMap<String, Sketch>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (created at zero on first use).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                self.counters.insert(name.to_owned(), delta);
            }
        }
    }

    /// Current value of a counter (`0` if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge to `v`.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                self.gauges.insert(name.to_owned(), v);
            }
        }
    }

    /// Current value of a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records `v` into the named quantile sketch, creating it on first
    /// use.
    pub fn observe(&mut self, name: &str, v: f64) {
        match self.sketches.get_mut(name) {
            Some(s) => s.observe(v),
            None => {
                let mut s = Sketch::new();
                s.observe(v);
                self.sketches.insert(name.to_owned(), s);
            }
        }
    }

    /// The named quantile sketch, if any sample was recorded.
    pub fn sketch(&self, name: &str) -> Option<&Sketch> {
        self.sketches.get(name)
    }

    /// All sketches in name order.
    pub fn sketches(&self) -> impl Iterator<Item = (&str, &Sketch)> {
        self.sketches.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds a pre-accumulated sketch into the named one (adopting a
    /// clone on first use). Lets hot loops accumulate into a
    /// lookup-free local sketch and pay one registry access per run.
    /// Empty sketches are ignored so exports only carry observed
    /// metrics.
    pub fn merge_sketch(&mut self, name: &str, s: &Sketch) {
        if s.is_empty() {
            return;
        }
        match self.sketches.get_mut(name) {
            Some(dst) => dst.merge(s),
            None => {
                self.sketches.insert(name.to_owned(), s.clone());
            }
        }
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.sketches.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let mut reg = Registry::new();
        reg.counter_add("a", 2);
        reg.counter_add("a", 3);
        reg.gauge_set("g", 1.0);
        reg.gauge_set("g", -4.5);
        assert_eq!(reg.counter("a"), 5);
        assert_eq!(reg.counter("missing"), 0);
        assert_eq!(reg.gauge("g"), Some(-4.5));
        assert_eq!(reg.gauge("missing"), None);
    }

    #[test]
    fn registry_iterates_in_name_order() {
        let mut reg = Registry::new();
        reg.counter_add("z", 1);
        reg.counter_add("a", 1);
        let names: Vec<&str> = reg.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "z"]);
    }

    #[test]
    fn registry_sketches_record_merge_and_iterate_in_name_order() {
        let mut a = Registry::new();
        a.observe("z.lat", 1.0);
        a.observe("a.lat", 2.0);
        let names: Vec<&str> = a.sketches().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.lat", "z.lat"]);
        assert_eq!(a.sketch("a.lat").unwrap().count(), 1);
        assert!(a.sketch("missing").is_none());

        let mut b = Sketch::new();
        b.observe(4.0);
        a.merge_sketch("a.lat", &b);
        assert_eq!(a.sketch("a.lat").unwrap().count(), 2);

        // Empty sketches leave no trace; a non-empty one is adopted.
        a.merge_sketch("ghost", &Sketch::new());
        assert!(a.sketch("ghost").is_none());
        let mut local = Sketch::new();
        local.observe(0.5);
        a.merge_sketch("adopted", &local);
        a.merge_sketch("adopted", &local);
        assert_eq!(a.sketch("adopted").unwrap().count(), 2);
        assert!(!a.is_empty());
        assert!(Registry::new().is_empty());
    }
}
