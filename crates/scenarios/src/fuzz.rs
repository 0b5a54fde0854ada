//! Adversarial scenario fuzzer with differential QoS oracles
//! (ROADMAP item 5).
//!
//! The fuzzer drives the in-tree property engine (`adrias_core::prop`)
//! as a *scenario generator*: each [`FuzzCase`] bundles a random app
//! mix, an arrival shape (calm open arrivals up to closed-loop-like
//! bursts), a scenario seed and a link-degradation fault schedule
//! (latency spikes, throughput collapse, flapping — the classic
//! disaggregation failure modes). Every case is lowered onto the
//! observed engine path and run under the Adrias policy **and** the
//! Random / Round-Robin baselines; two differential oracles gate it:
//!
//! 1. **QoS consistency** — Adrias never *offloads* a latency-critical
//!    deployment whose own predicted remote p99 violates the QoS rule.
//!    Checked over the `adrias-obs` audit trail with
//!    [`adrias_orchestrator::qos::count_violations`]; on failure the
//!    offending [`adrias_obs::DecisionRecord`]s are exported as
//!    evidence via [`adrias_obs::to_jsonl_qos_counterexamples`].
//! 2. **Differential performance** — across a fuzzed suite, Adrias's
//!    median best-effort slowdown must not lose to either
//!    contention-oblivious baseline.
//!
//! Failing cases shrink through the engine's [`prop::falsify_from`]
//! machinery toward a minimal counterexample, ready to persist into
//! the versioned regression corpus (see [`crate::corpus`]). Every case
//! is bitwise reproducible from `(base_seed, case_index)` alone, at any
//! worker count: [`run_suite`] distributes cases over threads but folds
//! results in case order, and [`case_digest`] pins the exact bit
//! patterns of all three policy runs.

use adrias_core::prop::{
    self, collection, sample, Counterexample, PropFail, Strategy, VecStrategy,
};
use adrias_core::rng::Xoshiro256pp;
use adrias_core::thread::map_chunks;
use adrias_obs::{DecisionRule, Observer};
use adrias_orchestrator::engine::{run_stream_hooked, FaultEvent, RunReport, ScheduleStream};
use adrias_orchestrator::qos::count_violations;
use adrias_orchestrator::{DecisionContext, ObservedRun, Policy, RandomPolicy, RoundRobinPolicy};
use adrias_sim::{LinkConfig, TestbedConfig};
use adrias_workloads::{MemoryMode, WorkloadCatalog, WorkloadClass};

use crate::schedule::{build_schedule, PlacementStyle};
use crate::spec::ScenarioSpec;
use crate::stack::TrainedStack;

/// Which slice of the paper catalog a fuzzed scenario deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppMix {
    /// Best-effort analytics plus iBench stressors only — no
    /// latency-critical services (the QoS oracle is vacuous here, which
    /// is exactly why shrinking orders it first: a counterexample that
    /// survives must keep its LC deployments).
    BestEffortOnly,
    /// The full paper catalog.
    Full,
    /// The paper catalog with latency-critical services oversampled
    /// 3×, stressing the QoS path.
    LcHeavy,
}

impl AppMix {
    /// Builds the evaluation catalog for this mix.
    pub fn catalog(self) -> WorkloadCatalog {
        let paper = WorkloadCatalog::paper();
        match self {
            AppMix::Full => paper,
            AppMix::BestEffortOnly => WorkloadCatalog::from_profiles(
                paper
                    .entries()
                    .iter()
                    .filter(|p| p.class() != WorkloadClass::LatencyCritical)
                    .cloned()
                    .collect(),
            ),
            AppMix::LcHeavy => {
                let mut entries = paper.entries().to_vec();
                let lc: Vec<_> = paper.latency_critical().cloned().collect();
                for _ in 0..2 {
                    entries.extend(lc.iter().cloned());
                }
                WorkloadCatalog::from_profiles(entries)
            }
        }
    }

    /// Stable on-disk tag (see [`crate::corpus`]).
    pub fn tag(self) -> &'static str {
        match self {
            AppMix::BestEffortOnly => "be_only",
            AppMix::Full => "full",
            AppMix::LcHeavy => "lc_heavy",
        }
    }

    /// Inverse of [`AppMix::tag`].
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "be_only" => Some(AppMix::BestEffortOnly),
            "full" => Some(AppMix::Full),
            "lc_heavy" => Some(AppMix::LcHeavy),
            _ => None,
        }
    }
}

/// Arrival-process shape: spawn-interval bounds for the scenario's
/// open-arrival generator, from the paper's relaxed corpus down to
/// back-to-back bursts that approximate a closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalShape {
    /// Relaxed open arrivals, 5–60 s apart (paper's calmest corpus).
    Calm,
    /// The paper's dense corpus, 5–25 s apart.
    Steady,
    /// Near-closed bursts, 1–6 s apart: the testbed rarely drains, so
    /// contention stays saturated.
    Burst,
}

impl ArrivalShape {
    /// `(spawn_min_s, spawn_max_s)` for [`ScenarioSpec::new`].
    pub fn spawn_bounds(self) -> (f64, f64) {
        match self {
            ArrivalShape::Calm => (5.0, 60.0),
            ArrivalShape::Steady => (5.0, 25.0),
            ArrivalShape::Burst => (1.0, 6.0),
        }
    }

    /// Stable on-disk tag.
    pub fn tag(self) -> &'static str {
        match self {
            ArrivalShape::Calm => "calm",
            ArrivalShape::Steady => "steady",
            ArrivalShape::Burst => "burst",
        }
    }

    /// Inverse of [`ArrivalShape::tag`].
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "calm" => Some(ArrivalShape::Calm),
            "steady" => Some(ArrivalShape::Steady),
            "burst" => Some(ArrivalShape::Burst),
            _ => None,
        }
    }
}

/// A link-degradation failure mode, concretized into [`LinkConfig`]s
/// by [`FuzzCase::fault_events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Latency spike: base/saturated cycles and remote latency jump
    /// ~2.5×; capacity is untouched.
    LatencySpike,
    /// Throughput collapse: link capacity drops to a tenth; latencies
    /// are untouched.
    ThroughputCollapse,
    /// Flap: full degradation (collapse + spike) that heals back to the
    /// paper link [`FLAP_HEAL_AFTER_S`] later.
    Flap,
}

impl FaultKind {
    /// Stable on-disk tag.
    pub fn tag(self) -> &'static str {
        match self {
            FaultKind::LatencySpike => "latency_spike",
            FaultKind::ThroughputCollapse => "throughput_collapse",
            FaultKind::Flap => "flap",
        }
    }

    /// Inverse of [`FaultKind::tag`].
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "latency_spike" => Some(FaultKind::LatencySpike),
            "throughput_collapse" => Some(FaultKind::ThroughputCollapse),
            "flap" => Some(FaultKind::Flap),
            _ => None,
        }
    }
}

/// Seconds between a [`FaultKind::Flap`] degradation and its heal event.
pub const FLAP_HEAL_AFTER_S: f64 = 45.0;

/// One scheduled link fault: a trigger instant as a percentage of the
/// scenario duration, plus the failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Trigger time, percent of `duration_s` (palette: 10/25/50/75).
    pub at_pct: u8,
    /// Which failure mode fires.
    pub kind: FaultKind,
}

/// A latency-spiked variant of the paper link.
fn spiked_link() -> LinkConfig {
    LinkConfig {
        base_latency_cycles: 850.0,
        saturated_latency_cycles: 1700.0,
        remote_latency_ns: 2400.0,
        ..LinkConfig::paper()
    }
}

/// A throughput-collapsed variant of the paper link.
fn collapsed_link() -> LinkConfig {
    LinkConfig {
        effective_cap_gbps: 0.25,
        ..LinkConfig::paper()
    }
}

/// A fully degraded link: collapse and spike at once (the flap's "down"
/// state).
fn flapped_link() -> LinkConfig {
    LinkConfig {
        effective_cap_gbps: 0.25,
        ..spiked_link()
    }
}

/// One generated adversarial scenario: everything needed to replay it
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Catalog slice deployed.
    pub mix: AppMix,
    /// Arrival-process shape.
    pub arrivals: ArrivalShape,
    /// Scenario duration, seconds (palette: 480/640/800).
    pub duration_s: u32,
    /// Scenario seed (drives arrivals, app choice, forced modes and the
    /// engine's latency RNG via [`ScenarioSpec::engine_config`]).
    pub seed: u64,
    /// Link-degradation schedule, unordered; lowered and sorted by
    /// [`FuzzCase::fault_events`].
    pub faults: Vec<FaultSpec>,
}

impl FuzzCase {
    /// The scenario spec this case lowers to.
    pub fn spec(&self) -> ScenarioSpec {
        let (lo, hi) = self.arrivals.spawn_bounds();
        ScenarioSpec::new(lo, hi, f64::from(self.duration_s), self.seed)
    }

    /// Lowers the fault schedule into sorted engine [`FaultEvent`]s.
    /// Each flap contributes a degrade *and* a heal event; when several
    /// events share an instant the engine applies them in order, so the
    /// last one wins.
    pub fn fault_events(&self) -> Vec<FaultEvent> {
        let mut events = Vec::with_capacity(self.faults.len() * 2);
        for f in &self.faults {
            let at_s = f64::from(self.duration_s) * f64::from(f.at_pct) / 100.0;
            match f.kind {
                FaultKind::LatencySpike => events.push(FaultEvent {
                    at_s,
                    link: spiked_link(),
                }),
                FaultKind::ThroughputCollapse => events.push(FaultEvent {
                    at_s,
                    link: collapsed_link(),
                }),
                FaultKind::Flap => {
                    events.push(FaultEvent {
                        at_s,
                        link: flapped_link(),
                    });
                    events.push(FaultEvent {
                        at_s: at_s + FLAP_HEAL_AFTER_S,
                        link: LinkConfig::paper(),
                    });
                }
            }
        }
        events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
        events
    }
}

/// The tuple shadow of [`FuzzCase`] that the generic tuple/vec
/// strategies understand.
type CaseTuple = (AppMix, ArrivalShape, u32, u64, Vec<FaultSpec>);

fn case_to_tuple(c: &FuzzCase) -> CaseTuple {
    (c.mix, c.arrivals, c.duration_s, c.seed, c.faults.clone())
}

fn case_from_tuple((mix, arrivals, duration_s, seed, faults): CaseTuple) -> FuzzCase {
    FuzzCase {
        mix,
        arrivals,
        duration_s,
        seed,
        faults,
    }
}

/// Strategy for one [`FaultSpec`], shrinking toward early, boring
/// latency spikes.
#[derive(Debug, Clone)]
pub struct FaultSpecStrategy {
    inner: (sample::Select<u8>, sample::Select<FaultKind>),
}

impl Strategy for FaultSpecStrategy {
    type Value = FaultSpec;

    fn generate(&self, rng: &mut Xoshiro256pp) -> FaultSpec {
        let (at_pct, kind) = self.inner.generate(rng);
        FaultSpec { at_pct, kind }
    }

    fn shrink(&self, value: &FaultSpec) -> Vec<FaultSpec> {
        self.inner
            .shrink(&(value.at_pct, value.kind))
            .into_iter()
            .map(|(at_pct, kind)| FaultSpec { at_pct, kind })
            .collect()
    }
}

/// Strategy over whole [`FuzzCase`]s: every field draws from a
/// simplest-first palette, so shrinking walks toward a BE-only, calm,
/// short, fault-free scenario with seed 0 — any structure that survives
/// shrinking is load-bearing for the failure.
#[derive(Debug, Clone)]
pub struct FuzzCaseStrategy {
    inner: CaseTupleStrategy,
}

/// The field-wise strategy tuple behind [`FuzzCaseStrategy`].
type CaseTupleStrategy = (
    sample::Select<AppMix>,
    sample::Select<ArrivalShape>,
    sample::Select<u32>,
    core::ops::Range<u64>,
    VecStrategy<FaultSpecStrategy>,
);

impl Strategy for FuzzCaseStrategy {
    type Value = FuzzCase;

    fn generate(&self, rng: &mut Xoshiro256pp) -> FuzzCase {
        case_from_tuple(self.inner.generate(rng))
    }

    fn shrink(&self, value: &FuzzCase) -> Vec<FuzzCase> {
        self.inner
            .shrink(&case_to_tuple(value))
            .into_iter()
            .map(case_from_tuple)
            .collect()
    }
}

/// The scenario-space strategy used by the adversarial runner.
pub fn case_strategy() -> FuzzCaseStrategy {
    FuzzCaseStrategy {
        inner: (
            sample::select(vec![AppMix::BestEffortOnly, AppMix::Full, AppMix::LcHeavy]),
            sample::select(vec![
                ArrivalShape::Calm,
                ArrivalShape::Steady,
                ArrivalShape::Burst,
            ]),
            sample::select(vec![480, 640, 800]),
            0u64..4096,
            collection::vec(
                FaultSpecStrategy {
                    inner: (
                        sample::select(vec![10u8, 25, 50, 75]),
                        sample::select(vec![
                            FaultKind::LatencySpike,
                            FaultKind::ThroughputCollapse,
                            FaultKind::Flap,
                        ]),
                    ),
                },
                0..4,
            ),
        ),
    }
}

/// Generates the deterministic case list for `(base_seed, n)`: case `i`
/// regenerates from [`prop::case_seed`]`(base, i)` alone, matching the
/// coordinates [`prop::falsify_from`] reports.
pub fn generate_cases(base_seed: u64, n: u64) -> Vec<FuzzCase> {
    use adrias_core::rng::SeedableRng;
    let strat = case_strategy();
    (0..n)
        .map(|case| {
            let mut rng = Xoshiro256pp::seed_from_u64(prop::case_seed(base_seed, case));
            strat.generate(&mut rng)
        })
        .collect()
}

/// Fixed parameters of one fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// The testbed model (noiseless by default so oracles are exact).
    pub testbed: TestbedConfig,
    /// β-slack handed to the Adrias policy.
    pub beta: f32,
    /// The QoS constraint both the engine and oracle 1 enforce, ms.
    pub qos_p99_ms: f32,
    /// Test-only: arm the seeded QoS-rule bypass inside the Adrias
    /// policy so the fuzzer's find-and-shrink path can be validated
    /// end to end against a known-bad implementation.
    pub qos_bypass: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            testbed: TestbedConfig::noiseless(),
            beta: 0.7,
            qos_p99_ms: 5.0,
            qos_bypass: false,
        }
    }
}

/// Everything one case produced under the three policies.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The case that ran.
    pub case: FuzzCase,
    /// Bit-level digest over all three reports (see [`case_digest`]).
    pub digest: u64,
    /// Oracle 1: QoS-violating offloads in the Adrias audit trail.
    pub qos_violations: usize,
    /// Audit-trail evidence (decision JSONL) when oracle 1 failed;
    /// empty otherwise.
    pub qos_evidence: String,
    /// Policy-decided best-effort mean slowdowns under Adrias.
    pub adrias_slowdowns: Vec<f32>,
    /// …under the Random baseline.
    pub random_slowdowns: Vec<f32>,
    /// …under the Round-Robin baseline.
    pub rr_slowdowns: Vec<f32>,
}

/// FNV-1a over a fingerprint string: stable, dependency-free, and
/// sensitive to every bit the determinism contract pins.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn fingerprint_report(out: &mut String, r: &RunReport) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "|{} end={:016x} link={:016x} unfinished={}",
        r.policy,
        r.end_time_s.to_bits(),
        r.link_bytes.to_bits(),
        r.unfinished
    );
    for o in &r.outcomes {
        let _ = write!(
            out,
            ";{}:{}:{:016x}:{:08x}:{:08x}",
            o.name,
            o.mode,
            o.runtime_s.to_bits(),
            o.mean_slowdown.to_bits(),
            o.p99_ms.unwrap_or(0.0).to_bits()
        );
    }
}

/// Digest of one case's differential run: policy names, every outcome's
/// placement and runtime/slowdown/p99 bit patterns, link bytes, end
/// times, and the oracle-1 violation count. Two runs of the same case
/// agree on this digest iff they agree on every pinned bit.
pub fn case_digest(reports: &[&RunReport], qos_violations: usize) -> u64 {
    let mut fp = String::new();
    for r in reports {
        fingerprint_report(&mut fp, r);
    }
    use std::fmt::Write as _;
    let _ = write!(fp, "|violations={qos_violations}");
    fnv1a(fp.as_bytes())
}

/// Wrapper so heterogeneous policies can share the engine call path.
enum AnyPolicy {
    Adrias(Box<adrias_orchestrator::AdriasPolicy>),
    Random(RandomPolicy),
    Rr(RoundRobinPolicy),
}

impl Policy for AnyPolicy {
    fn name(&self) -> &str {
        match self {
            AnyPolicy::Adrias(p) => p.name(),
            AnyPolicy::Random(p) => p.name(),
            AnyPolicy::Rr(p) => p.name(),
        }
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> MemoryMode {
        match self {
            AnyPolicy::Adrias(p) => p.decide(ctx),
            AnyPolicy::Random(p) => p.decide(ctx),
            AnyPolicy::Rr(p) => p.decide(ctx),
        }
    }

    // Must forward: the default impl would erase the decision rule and
    // predictions from the audit trail, blinding the QoS oracle.
    fn decide_explained(
        &mut self,
        ctx: &DecisionContext<'_>,
    ) -> adrias_orchestrator::ExplainedDecision {
        match self {
            AnyPolicy::Adrias(p) => p.decide_explained(ctx),
            AnyPolicy::Random(p) => p.decide_explained(ctx),
            AnyPolicy::Rr(p) => p.decide_explained(ctx),
        }
    }

    // Forwarded so lifecycle spans in post-mortem bundles carry the
    // real fast/slow lane instead of the baseline "direct" default.
    fn lane(&self) -> &'static str {
        match self {
            AnyPolicy::Adrias(p) => p.lane(),
            AnyPolicy::Random(p) => p.lane(),
            AnyPolicy::Rr(p) => p.lane(),
        }
    }

    fn set_wall_profiling(&mut self, enabled: bool) {
        match self {
            AnyPolicy::Adrias(p) => p.set_wall_profiling(enabled),
            AnyPolicy::Random(p) => p.set_wall_profiling(enabled),
            AnyPolicy::Rr(p) => p.set_wall_profiling(enabled),
        }
    }

    fn take_forward_wall_ns(&mut self) -> u64 {
        match self {
            AnyPolicy::Adrias(p) => p.take_forward_wall_ns(),
            AnyPolicy::Random(p) => p.take_forward_wall_ns(),
            AnyPolicy::Rr(p) => p.take_forward_wall_ns(),
        }
    }
}

/// Runs one policy over the case's faulted scenario, observed.
fn run_policy(cfg: &FuzzConfig, case: &FuzzCase, policy: &mut AnyPolicy) -> (RunReport, Observer) {
    let spec = case.spec();
    let catalog = case.mix.catalog();
    let schedule = build_schedule(&spec, &catalog, PlacementStyle::PolicyDecided);
    let faults = case.fault_events();
    let engine = spec.engine_config(Some(cfg.qos_p99_ms));
    let mut obs = Observer::default();
    let report = run_stream_hooked(
        cfg.testbed,
        engine,
        &mut ScheduleStream::new(&schedule),
        &faults,
        policy,
        &mut ObservedRun::with_qos(&mut obs, engine.qos_p99_ms),
    );
    (report, obs)
}

fn be_slowdowns(report: &RunReport) -> Vec<f32> {
    report
        .decided_of_class(WorkloadClass::BestEffort)
        .map(|o| o.mean_slowdown)
        .collect()
}

/// Counts oracle-1 violations in an Adrias audit trail: collect the
/// predicted remote p99 of every audited `qos_threshold` decision that
/// actually offloaded, and run [`count_violations`] against the rule's
/// own threshold. Missing predictions count as violations (rendered as
/// NaN so `count_violations` flags them).
pub fn audit_qos_violations(obs: &Observer, qos_p99_ms: f32) -> usize {
    let offload_preds: Vec<f32> = obs
        .audit
        .records()
        .iter()
        .filter(|r| {
            matches!(r.input.rule, DecisionRule::QosThreshold { .. })
                && r.input.chosen == MemoryMode::Remote
        })
        .map(|r| r.input.pred_remote.unwrap_or(f32::NAN))
        .collect();
    count_violations(&offload_preds, qos_p99_ms)
}

/// Runs one case under Adrias and both baselines and evaluates the
/// per-case oracle. Bitwise deterministic in `(cfg, case)`.
pub fn run_case(stack: &TrainedStack, cfg: &FuzzConfig, case: &FuzzCase) -> CaseOutcome {
    let mut adrias = {
        let mut p = stack.policy(cfg.beta, cfg.qos_p99_ms);
        if cfg.qos_bypass {
            p.set_test_qos_bypass(true);
        }
        AnyPolicy::Adrias(Box::new(p))
    };
    let (adrias_report, adrias_obs) = run_policy(cfg, case, &mut adrias);
    let qos_violations = audit_qos_violations(&adrias_obs, cfg.qos_p99_ms);
    let qos_evidence = if qos_violations > 0 {
        adrias_obs::to_jsonl_qos_counterexamples(&adrias_obs, cfg.qos_p99_ms)
    } else {
        String::new()
    };

    let mut random = AnyPolicy::Random(RandomPolicy::new(case.seed ^ 0xBA5E));
    let (random_report, _) = run_policy(cfg, case, &mut random);
    let mut rr = AnyPolicy::Rr(RoundRobinPolicy::new());
    let (rr_report, _) = run_policy(cfg, case, &mut rr);

    let digest = case_digest(
        &[&adrias_report, &random_report, &rr_report],
        qos_violations,
    );
    CaseOutcome {
        case: case.clone(),
        digest,
        qos_violations,
        qos_evidence,
        adrias_slowdowns: be_slowdowns(&adrias_report),
        random_slowdowns: be_slowdowns(&random_report),
        rr_slowdowns: be_slowdowns(&rr_report),
    }
}

/// Suite-level verdict over a batch of case outcomes.
#[derive(Debug, Clone)]
pub struct SuiteVerdict {
    /// Indices of cases that failed oracle 1 (QoS consistency).
    pub qos_failures: Vec<usize>,
    /// Median policy-decided BE slowdown under Adrias.
    pub adrias_median: f32,
    /// …under the Random baseline.
    pub random_median: f32,
    /// …under the Round-Robin baseline.
    pub rr_median: f32,
    /// Order-sensitive fold of the per-case digests: worker-count
    /// invariant by construction, and any bit drift in any case flips
    /// it.
    pub suite_digest: u64,
}

impl SuiteVerdict {
    /// Oracle 2: the suite-median Adrias slowdown does not lose to
    /// either baseline.
    pub fn differential_ok(&self) -> bool {
        self.adrias_median <= self.random_median && self.adrias_median <= self.rr_median
    }

    /// Both oracles hold.
    pub fn ok(&self) -> bool {
        self.qos_failures.is_empty() && self.differential_ok()
    }
}

/// A full fuzzing (or replay) pass: per-case outcomes in case order
/// plus the suite verdict.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Per-case outcomes, in input order.
    pub outcomes: Vec<CaseOutcome>,
    /// The two-oracle verdict.
    pub verdict: SuiteVerdict,
}

/// Runs every case across `workers` threads and folds outcomes in case
/// order, so the report — digests included — is identical at any
/// worker count.
///
/// # Panics
///
/// Panics if `cases` is empty or `workers` is zero.
pub fn run_suite(
    stack: &TrainedStack,
    cfg: &FuzzConfig,
    cases: &[FuzzCase],
    workers: usize,
) -> SuiteReport {
    assert!(!cases.is_empty(), "no cases to run");
    assert!(workers > 0, "need at least one worker thread");
    let outcomes: Vec<CaseOutcome> = map_chunks(cases, workers, |chunk| {
        chunk
            .iter()
            .map(|case| run_case(stack, cfg, case))
            .collect()
    });

    let qos_failures: Vec<usize> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.qos_violations > 0)
        .map(|(i, _)| i)
        .collect();
    let pool = |pick: fn(&CaseOutcome) -> &[f32]| -> Vec<f32> {
        outcomes
            .iter()
            .flat_map(|o| pick(o).iter().copied())
            .collect()
    };
    let adrias_median = crate::runner::median(&pool(|o| &o.adrias_slowdowns));
    let random_median = crate::runner::median(&pool(|o| &o.random_slowdowns));
    let rr_median = crate::runner::median(&pool(|o| &o.rr_slowdowns));

    let mut fp = String::new();
    for o in &outcomes {
        use std::fmt::Write as _;
        let _ = write!(fp, "{:016x};", o.digest);
    }
    let verdict = SuiteVerdict {
        qos_failures,
        adrias_median,
        random_median,
        rr_median,
        suite_digest: fnv1a(fp.as_bytes()),
    };
    SuiteReport { outcomes, verdict }
}

/// One corpus case's replay result.
#[derive(Debug, Clone)]
pub struct ReplayCaseResult {
    /// Corpus id of the case.
    pub id: String,
    /// Digest the manifest promised.
    pub expected_digest: u64,
    /// What the replay actually produced.
    pub outcome: CaseOutcome,
}

impl ReplayCaseResult {
    /// Bitwise reproduction held.
    pub fn digest_ok(&self) -> bool {
        self.outcome.digest == self.expected_digest
    }
}

/// Replay verdict over a whole corpus: the regular two-oracle suite
/// verdict plus the bit-reproduction gate against recorded digests.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Per-case results, in corpus (manifest) order.
    pub results: Vec<ReplayCaseResult>,
    /// The two-oracle verdict over the replayed suite.
    pub verdict: SuiteVerdict,
}

impl ReplayReport {
    /// Ids of cases whose digest drifted from the manifest.
    pub fn digest_mismatches(&self) -> Vec<&str> {
        self.results
            .iter()
            .filter(|r| !r.digest_ok())
            .map(|r| r.id.as_str())
            .collect()
    }

    /// The corpus replays green: both oracles hold and every case
    /// reproduced its recorded digest bit for bit.
    pub fn ok(&self) -> bool {
        self.verdict.ok() && self.results.iter().all(ReplayCaseResult::digest_ok)
    }
}

/// Replays a loaded corpus as a regression suite (the CI gate): every
/// case must pass both oracles *and* reproduce the digest recorded at
/// promotion time, at any worker count.
///
/// # Panics
///
/// Panics if `entries` is empty or `workers` is zero.
pub fn replay_corpus(
    stack: &TrainedStack,
    cfg: &FuzzConfig,
    entries: &[crate::corpus::CorpusEntry],
    workers: usize,
) -> ReplayReport {
    let cases: Vec<FuzzCase> = entries.iter().map(|e| e.case.clone()).collect();
    let suite = run_suite(stack, cfg, &cases, workers);
    let results = entries
        .iter()
        .zip(suite.outcomes)
        .map(|(e, outcome)| ReplayCaseResult {
            id: e.id.clone(),
            expected_digest: e.digest,
            outcome,
        })
        .collect();
    ReplayReport {
        results,
        verdict: suite.verdict,
    }
}

/// Replays a case's Adrias leg and dumps the flight recorder's
/// post-mortem bundle into `dir`: the last popped engine events, the
/// QoS counterexample evidence, the metrics/sketch registry snapshot
/// and the lifecycle spans (`flight.jsonl`, `qos_counterexamples.jsonl`,
/// `metrics.jsonl`, `spans.jsonl`). This is the forensic artifact the
/// adversarial runner persists next to each shrunk counterexample, and
/// the seeded-bypass selfcheck asserts it is non-empty.
///
/// Returns the oracle-1 violation count observed during the replay.
///
/// # Errors
///
/// Propagates any filesystem failure from the bundle writer as a
/// rendered message.
pub fn dump_post_mortem(
    stack: &TrainedStack,
    cfg: &FuzzConfig,
    case: &FuzzCase,
    dir: &std::path::Path,
) -> Result<usize, String> {
    let mut adrias = {
        let mut p = stack.policy(cfg.beta, cfg.qos_p99_ms);
        if cfg.qos_bypass {
            p.set_test_qos_bypass(true);
        }
        AnyPolicy::Adrias(Box::new(p))
    };
    let (_, obs) = run_policy(cfg, case, &mut adrias);
    let violations = audit_qos_violations(&obs, cfg.qos_p99_ms);
    adrias_obs::write_post_mortem(&obs, dir, cfg.qos_p99_ms).map_err(|e| e.to_string())?;
    Ok(violations)
}

/// Oracle-1 check in the shape [`prop::falsify_from`] wants: runs only
/// the Adrias leg (the baselines don't participate in the QoS oracle),
/// so shrinking stays cheap.
fn qos_check(stack: &TrainedStack, cfg: &FuzzConfig, case: &FuzzCase) -> Result<(), PropFail> {
    let mut adrias = {
        let mut p = stack.policy(cfg.beta, cfg.qos_p99_ms);
        if cfg.qos_bypass {
            p.set_test_qos_bypass(true);
        }
        AnyPolicy::Adrias(Box::new(p))
    };
    let (_, obs) = run_policy(cfg, case, &mut adrias);
    let violations = audit_qos_violations(&obs, cfg.qos_p99_ms);
    if violations > 0 {
        Err(PropFail::new(
            format!(
                "QoS oracle violated: {violations} offloaded LC deployment(s) with predicted \
                 remote p99 above {} ms",
                cfg.qos_p99_ms
            ),
            file!(),
            line!(),
        ))
    } else {
        Ok(())
    }
}

/// Searches `cases` generated scenarios for an oracle-1 violation and
/// shrinks the first hit to a minimal counterexample. `None` when every
/// case passes. The returned coordinates `(base_seed, case)` replay the
/// original un-shrunk scenario via [`generate_cases`].
pub fn find_qos_counterexample(
    stack: &TrainedStack,
    cfg: &FuzzConfig,
    base_seed: u64,
    cases: u64,
) -> Option<Counterexample<FuzzCase>> {
    prop::falsify_from(base_seed, cases, &case_strategy(), |case| {
        qos_check(stack, cfg, &case)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_generation_is_deterministic_and_seed_indexed() {
        let a = generate_cases(0xAD, 8);
        let b = generate_cases(0xAD, 8);
        assert_eq!(a, b);
        // Case i depends only on (base, i), not on how many cases were
        // asked for.
        let prefix = generate_cases(0xAD, 3);
        assert_eq!(&a[..3], &prefix[..]);
        // Different bases explore different scenarios.
        assert_ne!(a, generate_cases(0xAE, 8));
    }

    #[test]
    fn strategies_cover_the_palettes() {
        let cases = generate_cases(7, 64);
        assert!(cases.iter().any(|c| c.mix == AppMix::LcHeavy));
        assert!(cases.iter().any(|c| c.arrivals == ArrivalShape::Burst));
        assert!(cases.iter().any(|c| !c.faults.is_empty()));
        assert!(cases.iter().any(|c| c.faults.is_empty()));
        for c in &cases {
            assert!([480, 640, 800].contains(&c.duration_s));
            assert!(c.seed < 4096);
            assert!(c.faults.len() < 4);
        }
    }

    #[test]
    fn shrinking_moves_toward_the_simplest_scenario() {
        let strat = case_strategy();
        let case = FuzzCase {
            mix: AppMix::LcHeavy,
            arrivals: ArrivalShape::Burst,
            duration_s: 800,
            seed: 1024,
            faults: vec![
                FaultSpec {
                    at_pct: 75,
                    kind: FaultKind::Flap,
                },
                FaultSpec {
                    at_pct: 50,
                    kind: FaultKind::ThroughputCollapse,
                },
            ],
        };
        let cands = strat.shrink(&case);
        assert!(!cands.is_empty());
        // Field-wise candidates include the simplest mix, shape,
        // duration, seed 0 and a shorter fault list.
        assert!(cands.iter().any(|c| c.mix == AppMix::BestEffortOnly));
        assert!(cands.iter().any(|c| c.arrivals == ArrivalShape::Calm));
        assert!(cands.iter().any(|c| c.duration_s == 480));
        assert!(cands.iter().any(|c| c.seed == 0));
        assert!(cands.iter().any(|c| c.faults.len() < case.faults.len()));
        // The fully shrunk fixed point stops shrinking.
        let minimal = FuzzCase {
            mix: AppMix::BestEffortOnly,
            arrivals: ArrivalShape::Calm,
            duration_s: 480,
            seed: 0,
            faults: Vec::new(),
        };
        assert!(strat.shrink(&minimal).is_empty());
    }

    #[test]
    fn fault_events_are_sorted_and_flaps_heal() {
        let case = FuzzCase {
            mix: AppMix::Full,
            arrivals: ArrivalShape::Steady,
            duration_s: 800,
            seed: 1,
            faults: vec![
                FaultSpec {
                    at_pct: 75,
                    kind: FaultKind::LatencySpike,
                },
                FaultSpec {
                    at_pct: 10,
                    kind: FaultKind::Flap,
                },
            ],
        };
        let events = case.fault_events();
        assert_eq!(events.len(), 3, "flap contributes degrade + heal");
        assert!(events.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        assert_eq!(events[0].at_s, 80.0);
        assert_eq!(events[1].at_s, 80.0 + FLAP_HEAL_AFTER_S);
        assert_eq!(events[1].link, LinkConfig::paper(), "flap heals");
        assert_eq!(events[2].at_s, 600.0);
    }

    #[test]
    fn app_mixes_slice_the_catalog_as_documented() {
        let be_only = AppMix::BestEffortOnly.catalog();
        assert_eq!(be_only.latency_critical().count(), 0);
        assert!(be_only.best_effort().count() > 0);
        let full = AppMix::Full.catalog();
        let heavy = AppMix::LcHeavy.catalog();
        assert_eq!(
            heavy.latency_critical().count(),
            3 * full.latency_critical().count()
        );
        for mix in [AppMix::BestEffortOnly, AppMix::Full, AppMix::LcHeavy] {
            assert_eq!(AppMix::from_tag(mix.tag()), Some(mix));
        }
    }

    #[test]
    fn digest_reacts_to_any_report_change() {
        let report = RunReport {
            policy: "adrias".into(),
            outcomes: Vec::new(),
            samples: Vec::new(),
            link_bytes: 1.5e9,
            end_time_s: 700.0,
            unfinished: 0,
        };
        let base = case_digest(&[&report], 0);
        assert_eq!(base, case_digest(&[&report], 0), "digest is a pure fn");
        let mut nudged = report.clone();
        nudged.link_bytes += 1.0;
        assert_ne!(base, case_digest(&[&nudged], 0));
        assert_ne!(base, case_digest(&[&report], 1), "violations are pinned");
    }
}
