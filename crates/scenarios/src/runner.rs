//! The orchestration-evaluation runner (Figs. 16–17 of the paper).
//!
//! Replays the same scenario corpus under several policies and
//! aggregates runtimes, placements, tail latencies and link traffic.

use adrias_core::thread::map_chunks;
use adrias_obs::Observer;
use adrias_orchestrator::engine::{run_stream_hooked, RunReport, ScheduleStream};
use adrias_orchestrator::{ObservedRun, Policy};
use adrias_sim::TestbedConfig;
use adrias_workloads::{MemoryMode, WorkloadCatalog, WorkloadClass};

use crate::schedule::{build_schedule, PlacementStyle};
use crate::spec::ScenarioSpec;

/// Aggregated result of one policy over a scenario corpus.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// Policy name.
    pub policy: String,
    /// Per-scenario engine reports.
    pub reports: Vec<RunReport>,
}

impl PolicyOutcome {
    /// All policy-decided BE runtimes for one application across the
    /// corpus (the Fig. 16 distributions).
    pub fn be_runtimes(&self, app: &str) -> Vec<f32> {
        self.reports
            .iter()
            .flat_map(|r| r.decided_of_class(WorkloadClass::BestEffort))
            .filter(|o| o.name == app)
            .map(|o| o.runtime_s as f32)
            .collect()
    }

    /// All policy-decided BE runtimes, every application pooled.
    pub fn all_be_runtimes(&self) -> Vec<f32> {
        self.reports
            .iter()
            .flat_map(|r| r.decided_of_class(WorkloadClass::BestEffort))
            .map(|o| o.runtime_s as f32)
            .collect()
    }

    /// `(local, remote)` placement counts for one application.
    pub fn placements(&self, app: &str) -> (usize, usize) {
        let mut local = 0;
        let mut remote = 0;
        for o in self
            .reports
            .iter()
            .flat_map(|r| r.outcomes.iter())
            .filter(|o| o.policy_decided && o.name == app)
        {
            match o.mode {
                MemoryMode::Local => local += 1,
                MemoryMode::Remote => remote += 1,
            }
        }
        (local, remote)
    }

    /// Overall fraction of policy-decided apps placed remote.
    pub fn offload_fraction(&self) -> f32 {
        let (mut local, mut remote) = (0usize, 0usize);
        for r in &self.reports {
            let (l, m) = r.placement_counts();
            local += l;
            remote += m;
        }
        if local + remote == 0 {
            0.0
        } else {
            remote as f32 / (local + remote) as f32
        }
    }

    /// All p99 measurements for one LC application, ms.
    pub fn lc_p99s(&self, app: &str) -> Vec<f32> {
        self.reports
            .iter()
            .flat_map(|r| r.decided_of_class(WorkloadClass::LatencyCritical))
            .filter(|o| o.name == app)
            .filter_map(|o| o.p99_ms)
            .collect()
    }

    /// Number of LC deployments of `app` that violate `qos` and the
    /// number placed remote, `(violations, offloads, total)`.
    pub fn lc_qos_stats(&self, app: &str, qos_p99_ms: f32) -> (usize, usize, usize) {
        let mut violations = 0;
        let mut offloads = 0;
        let mut total = 0;
        for o in self
            .reports
            .iter()
            .flat_map(|r| r.decided_of_class(WorkloadClass::LatencyCritical))
            .filter(|o| o.name == app)
        {
            total += 1;
            if o.mode == MemoryMode::Remote {
                offloads += 1;
            }
            if o.p99_ms.is_some_and(|p| p > qos_p99_ms) {
                violations += 1;
            }
        }
        (violations, offloads, total)
    }

    /// Total bytes moved over the link across the corpus.
    pub fn total_link_bytes(&self) -> f64 {
        self.reports.iter().map(|r| r.link_bytes).sum()
    }
}

/// Replays `specs` under each policy produced by `make_policy`.
///
/// `make_policy(i)` is called once per (policy index, scenario) pair,
/// so every scenario starts from identical policy state and results
/// are independent of `threads`; every policy sees the *identical*
/// arrival schedules (same seeds, same forced iBench modes). Scenarios
/// of one policy run in parallel across `threads` workers.
///
/// # Panics
///
/// Panics if `specs` is empty, `n_policies` is zero or `threads` is zero.
pub fn run_comparison<F, P>(
    testbed_cfg: TestbedConfig,
    catalog: &WorkloadCatalog,
    specs: &[ScenarioSpec],
    n_policies: usize,
    qos_p99_ms: Option<f32>,
    threads: usize,
    make_policy: F,
) -> Vec<PolicyOutcome>
where
    F: Fn(usize) -> P + Sync,
    P: Policy + Send,
{
    assert!(!specs.is_empty(), "no scenarios to run");
    assert!(n_policies > 0, "no policies to compare");
    assert!(threads > 0, "need at least one worker thread");
    (0..n_policies)
        .map(|pi| {
            let reports: Vec<RunReport> = map_chunks(specs, threads, |chunk| {
                chunk
                    .iter()
                    .map(|spec| {
                        // Fresh policy state per scenario: placements
                        // depend only on (policy, spec), never on how
                        // specs were chunked across workers.
                        let mut policy = make_policy(pi);
                        let schedule = build_schedule(spec, catalog, PlacementStyle::PolicyDecided);
                        run_stream_hooked(
                            testbed_cfg,
                            spec.engine_config(qos_p99_ms),
                            &mut ScheduleStream::new(&schedule),
                            &[],
                            &mut policy,
                            &mut (),
                        )
                    })
                    .collect()
            });
            let probe = make_policy(pi);
            PolicyOutcome {
                policy: probe.name().to_owned(),
                reports,
            }
        })
        .collect()
}

/// Replays one scenario under `policy` with full observability: every
/// placement lands in `obs`'s audit trail, every testbed step feeds the
/// metrics registry, and completions become trace spans.
///
/// Uses the same schedule construction and
/// [`ScenarioSpec::engine_config`] as [`run_comparison`], so the
/// returned report is bit-identical to the corresponding unobserved
/// run.
pub fn run_observed<P: Policy>(
    testbed_cfg: TestbedConfig,
    catalog: &WorkloadCatalog,
    spec: &ScenarioSpec,
    qos_p99_ms: Option<f32>,
    policy: &mut P,
    obs: &mut Observer,
) -> RunReport {
    let schedule = build_schedule(spec, catalog, PlacementStyle::PolicyDecided);
    run_stream_hooked(
        testbed_cfg,
        spec.engine_config(qos_p99_ms),
        &mut ScheduleStream::new(&schedule),
        &[],
        policy,
        &mut ObservedRun::with_qos(obs, qos_p99_ms),
    )
}

/// Convenience: the median of a sample set (empty ⇒ 0).
pub fn median(xs: &[f32]) -> f32 {
    adrias_telemetry::stats::median(xs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adrias_orchestrator::{AllLocalPolicy, AllRemotePolicy, RandomPolicy, RoundRobinPolicy};

    fn specs() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::new(5.0, 25.0, 700.0, 11),
            ScenarioSpec::new(5.0, 45.0, 700.0, 12),
        ]
    }

    enum AnyPolicy {
        Local(AllLocalPolicy),
        Remote(AllRemotePolicy),
        Random(RandomPolicy),
        Rr(RoundRobinPolicy),
    }

    impl Policy for AnyPolicy {
        fn name(&self) -> &str {
            match self {
                AnyPolicy::Local(p) => p.name(),
                AnyPolicy::Remote(p) => p.name(),
                AnyPolicy::Random(p) => p.name(),
                AnyPolicy::Rr(p) => p.name(),
            }
        }

        fn decide(&mut self, ctx: &adrias_orchestrator::DecisionContext<'_>) -> MemoryMode {
            match self {
                AnyPolicy::Local(p) => p.decide(ctx),
                AnyPolicy::Remote(p) => p.decide(ctx),
                AnyPolicy::Random(p) => p.decide(ctx),
                AnyPolicy::Rr(p) => p.decide(ctx),
            }
        }
    }

    fn make(i: usize) -> AnyPolicy {
        match i {
            0 => AnyPolicy::Local(AllLocalPolicy::new()),
            1 => AnyPolicy::Remote(AllRemotePolicy::new()),
            2 => AnyPolicy::Random(RandomPolicy::new(99)),
            _ => AnyPolicy::Rr(RoundRobinPolicy::new()),
        }
    }

    #[test]
    fn comparison_runs_all_policies_on_same_schedules() {
        let outcomes = run_comparison(
            TestbedConfig::noiseless(),
            &WorkloadCatalog::paper(),
            &specs(),
            4,
            Some(5.0),
            2,
            make,
        );
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[0].policy, "All-Local");
        assert_eq!(outcomes[1].policy, "All-Remote");
        // Same arrivals → same number of decided apps across policies.
        let counts: Vec<usize> = outcomes
            .iter()
            .map(|o| {
                let (l, r) = (o.offload_fraction(), ());
                let _ = (l, r);
                o.reports
                    .iter()
                    .map(|rep| {
                        let (l, r) = rep.placement_counts();
                        l + r
                    })
                    .sum()
            })
            .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn all_local_never_offloads_all_remote_always() {
        let outcomes = run_comparison(
            TestbedConfig::noiseless(),
            &WorkloadCatalog::paper(),
            &specs(),
            2,
            None,
            2,
            make,
        );
        assert_eq!(outcomes[0].offload_fraction(), 0.0);
        assert_eq!(outcomes[1].offload_fraction(), 1.0);
    }

    #[test]
    fn remote_heavy_policies_move_more_link_bytes() {
        let outcomes = run_comparison(
            TestbedConfig::noiseless(),
            &WorkloadCatalog::paper(),
            &specs(),
            2,
            None,
            2,
            make,
        );
        assert!(
            outcomes[1].total_link_bytes() > outcomes[0].total_link_bytes(),
            "All-Remote must move more data than All-Local"
        );
    }

    #[test]
    fn all_remote_hurts_be_runtimes() {
        let outcomes = run_comparison(
            TestbedConfig::noiseless(),
            &WorkloadCatalog::paper(),
            &specs(),
            2,
            None,
            2,
            make,
        );
        let local_median = median(&outcomes[0].all_be_runtimes());
        let remote_median = median(&outcomes[1].all_be_runtimes());
        assert!(
            remote_median > local_median,
            "remote median {remote_median} vs local {local_median}"
        );
    }

    #[test]
    fn observed_scenario_matches_comparison_run() {
        let spec = ScenarioSpec::new(5.0, 25.0, 700.0, 11);
        let catalog = WorkloadCatalog::paper();
        let mut obs = adrias_obs::Observer::new(adrias_obs::ObsConfig::default());
        let mut policy = RoundRobinPolicy::new();
        let observed = run_observed(
            TestbedConfig::noiseless(),
            &catalog,
            &spec,
            None,
            &mut policy,
            &mut obs,
        );
        // Every arrival — forced stressors included — is audited once.
        assert_eq!(
            obs.audit.len(),
            observed.outcomes.len() + observed.unfinished
        );
        let plain = run_comparison(
            TestbedConfig::noiseless(),
            &catalog,
            &[spec],
            1,
            None,
            1,
            |_| RoundRobinPolicy::new(),
        );
        let plain = &plain[0].reports[0];
        assert_eq!(observed.end_time_s.to_bits(), plain.end_time_s.to_bits());
        assert_eq!(observed.link_bytes.to_bits(), plain.link_bytes.to_bits());
    }

    #[test]
    fn qos_stats_count_consistently() {
        let outcomes = run_comparison(
            TestbedConfig::noiseless(),
            &WorkloadCatalog::paper(),
            &specs(),
            2,
            Some(3.0),
            1,
            make,
        );
        for outcome in &outcomes {
            for app in ["redis", "memcached"] {
                let (v, o, t) = outcome.lc_qos_stats(app, 3.0);
                assert!(v <= t);
                assert!(o <= t);
                assert_eq!(outcome.lc_p99s(app).len(), t);
            }
        }
    }
}
