//! Observability hooks for the testbed: accumulates [`StepReport`]s
//! into sim metrics for an [`adrias_obs::Registry`].
//!
//! The engine observes every simulated second, so the per-step path
//! must stay cheap: [`SimMetrics`] is a plain struct of counters and
//! local [`Sketch`]es — no name lookups, and no allocation except when
//! a sample lands in a not yet occupied sketch bucket or an app
//! completes for the first time — and [`SimMetrics::flush`] pays the
//! registry accesses once per run. Everything recorded here is derived
//! from simulator state, so the resulting exports inherit the testbed's
//! determinism.

use std::collections::BTreeMap;

use adrias_obs::{Registry, Sketch};
use adrias_telemetry::Metric;

use crate::testbed::StepReport;

/// Per-run accumulator for simulator metrics: the step counter,
/// interconnect traffic and latency, resource-pressure sketches, and
/// per-app contention slowdowns for applications that finished.
#[derive(Debug, Clone, Default)]
pub struct SimMetrics {
    steps: u64,
    time_s: f64,
    flits_tx: u64,
    flits_rx: u64,
    completions: u64,
    latency_cycles: Sketch,
    link_utilization: Sketch,
    mem_bw: Sketch,
    llc: Sketch,
    slowdown: Sketch,
    slowdown_per_app: BTreeMap<String, Sketch>,
}

impl SimMetrics {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one simulation step.
    pub fn record(&mut self, report: &StepReport) {
        self.steps += 1;
        self.time_s = report.time_s;

        let vec = report.sample.vec();
        self.flits_tx += vec.get(Metric::LinkFlitsTx) as u64;
        self.flits_rx += vec.get(Metric::LinkFlitsRx) as u64;
        self.latency_cycles
            .observe(f64::from(vec.get(Metric::LinkLatency)));

        let p = &report.pressure;
        self.link_utilization.observe(f64::from(p.link_utilization));
        self.mem_bw.observe(f64::from(p.mem_bw));
        self.llc.observe(f64::from(p.llc));

        for done in &report.finished {
            self.completions += 1;
            let slowdown = f64::from(done.mean_slowdown);
            self.slowdown.observe(slowdown);
            match self.slowdown_per_app.get_mut(&done.name) {
                Some(s) => s.observe(slowdown),
                None => {
                    let mut s = Sketch::new();
                    s.observe(slowdown);
                    self.slowdown_per_app.insert(done.name.clone(), s);
                }
            }
        }
    }

    /// Number of steps recorded so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Folds the accumulated metrics into `registry` under the `sim.*`
    /// names (per-app slowdowns under `sim.slowdown.app.<name>`).
    /// Call once at the end of a run; repeated flushes double-count.
    pub fn flush(&self, registry: &mut Registry) {
        registry.counter_add("sim.steps", self.steps);
        registry.gauge_set("sim.time_s", self.time_s);
        registry.counter_add("sim.link.flits_tx", self.flits_tx);
        registry.counter_add("sim.link.flits_rx", self.flits_rx);
        registry.counter_add("sim.completions", self.completions);
        registry.merge_sketch("sim.link.latency_cycles", &self.latency_cycles);
        registry.merge_sketch("sim.pressure.link_utilization", &self.link_utilization);
        registry.merge_sketch("sim.pressure.mem_bw", &self.mem_bw);
        registry.merge_sketch("sim.pressure.llc", &self.llc);
        registry.merge_sketch("sim.slowdown", &self.slowdown);
        for (name, s) in &self.slowdown_per_app {
            registry.merge_sketch(&format!("sim.slowdown.app.{name}"), s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Testbed, TestbedConfig};
    use adrias_obs::export::to_jsonl_metrics;
    use adrias_obs::{json, Observer};
    use adrias_workloads::{spark, MemoryMode};

    #[test]
    fn exported_quantiles_sit_within_one_percent_of_the_rank_sample() {
        // Two completions of one app and four link-latency steps. On
        // series this small a quantile must still read as an actual
        // sample (up to the sketch's bucket width), never as a value
        // interpolated across a wide gap between samples.
        let series: [(&str, &[f64]); 2] = [
            ("sim.slowdown.app.svd", &[1.45, 1.89]),
            ("sim.link.latency_cycles", &[210.0, 230.0, 260.0, 480.0]),
        ];
        let mut obs = Observer::default();
        for (name, samples) in series {
            for &v in samples {
                obs.registry.observe(name, v);
            }
        }
        let text = to_jsonl_metrics(&obs);
        for (name, samples) in series {
            let tag = format!(r#""name":"{name}""#);
            let line = text.lines().find(|l| l.contains(&tag)).expect(name);
            let doc = json::parse(line).unwrap();
            let mut sorted = samples.to_vec();
            sorted.sort_by(f64::total_cmp);
            for (key, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
                let exact = sorted[(q * (sorted.len() - 1) as f64).floor() as usize];
                let got = doc.get(key).and_then(json::Json::as_num).expect(key);
                assert!(
                    (got - exact).abs() <= 0.01 * exact,
                    "{name} {key}: exported {got}, rank sample {exact}"
                );
            }
        }
    }

    #[test]
    fn steps_and_completions_are_counted() {
        let mut sim = SimMetrics::new();
        let mut tb = Testbed::new(TestbedConfig::noiseless(), 1);
        let gmm = spark::by_name("gmm").unwrap();
        tb.deploy_for(gmm, MemoryMode::Remote, 5.0);
        let mut completions = 0;
        for _ in 0..10 {
            let report = tb.step();
            completions += report.finished.len();
            sim.record(&report);
            if completions > 0 {
                break;
            }
        }
        let mut registry = Registry::new();
        sim.flush(&mut registry);
        assert!(registry.counter("sim.steps") >= 5);
        assert_eq!(registry.counter("sim.completions"), 1);
        assert!(registry.counter("sim.link.flits_tx") > 0);
        let s = registry.sketch("sim.slowdown.app.gmm").unwrap();
        assert_eq!(s.count(), 1);
        assert!(s.min() >= 1.0);
        assert_eq!(
            registry.sketch("sim.link.latency_cycles").unwrap().count(),
            sim.steps()
        );
    }
}
