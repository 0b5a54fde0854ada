//! Outside-in layer tracing: wrappers around the public traits the
//! engine calls (`Policy`, `ArrivalStream`, `EngineObserver`) time each
//! call, and the host time *between* two consecutive calls goes to the
//! engine phase that the event order of `run_event_inner` places there:
//!
//! * arrival event: heap pop + `Watcher::history_fill` → `decide_explained`
//!   → `Testbed::deploy_for` → `on_decision` → `on_admitted` →
//!   bookkeeping → `next_arrival` (pull-ahead);
//! * watcher tick: heap pop + `Testbed::step` + `Watcher::record` →
//!   `on_step` → finish pushes → `is_exhausted`;
//! * completion: heap pop + outcome building (`tail_latency` for LC) →
//!   `on_complete` → `ArrivalStream::on_complete`.
//!
//! Nothing inside the program is instrumented, so the engine's own wall
//! profiler (which formats a label per decision) stays off.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use adrias_obs::Observer;
use adrias_orchestrator::engine::{
    AppOutcome, ArrivalStream, EngineObserver, RunReport, ScheduledArrival,
};
use adrias_orchestrator::{AdriasPolicy, DecisionContext, ExplainedDecision, Policy};
use adrias_predictor::dataset::SEQ_LEN;
use adrias_scenarios::stack::TrainedStack;
use adrias_sim::{DeploymentId, StepReport};
use adrias_telemetry::{MetricVec, WindowStamp, METRIC_COUNT};
use adrias_workloads::{MemoryMode, WorkloadClass, WorkloadProfile};

/// Self-time buckets of one traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    ArrivalNext,
    ArrivalOther,
    AdmitPre,
    AdmitPost,
    PolicyHit,
    PolicyMiss,
    Step,
    CompleteLc,
    CompleteBe,
    ObsHook,
    Unattributed,
}

pub const LAYERS: usize = 11;

/// The call boundaries the wrappers see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hook {
    Start,
    NextArrival,
    StreamCall,
    StreamComplete,
    Decide,
    OnDecision,
    OnAdmitted,
    OnStep,
    OnComplete { lc: bool },
    Obs,
}

/// The engine phase that runs between hook `prev` returning and hook
/// `next` being entered.
fn gap_layer(prev: Hook, next: Hook) -> Layer {
    match (prev, next) {
        (_, Hook::Decide) => Layer::AdmitPre,
        (Hook::Decide, Hook::OnDecision) => Layer::AdmitPost,
        // A forced arrival skips the policy: pop, window fill and
        // deploy all run before `on_decision`.
        (_, Hook::OnDecision) => Layer::AdmitPre,
        (_, Hook::OnAdmitted) | (Hook::OnAdmitted, Hook::NextArrival) => Layer::AdmitPost,
        (_, Hook::OnStep) | (Hook::OnStep, Hook::StreamCall) => Layer::Step,
        (_, Hook::OnComplete { lc: true })
        | (Hook::OnComplete { lc: true }, Hook::StreamComplete) => Layer::CompleteLc,
        (_, Hook::OnComplete { lc: false })
        | (Hook::OnComplete { lc: false }, Hook::StreamComplete) => Layer::CompleteBe,
        _ => Layer::Unattributed,
    }
}

/// Accumulated layer times and event counts of traced runs.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    pub ns: [u64; LAYERS],
    pub wall_ns: u64,
    pub next_calls: u64,
    pub hits: u64,
    pub misses: u64,
    pub admissions: u64,
    pub steps: u64,
    /// Steps from the first admission on (the Watcher warm-up before it
    /// is idle by construction).
    pub live_steps: u64,
    pub idle_steps: u64,
    pub resident_sum: u64,
    pub lc_completions: u64,
    pub be_completions: u64,
    pub obs_calls: u64,
}

impl LayerTotals {
    pub fn get(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }

    pub fn attributed_ns(&self) -> u64 {
        self.ns.iter().sum::<u64>() - self.get(Layer::Unattributed)
    }

    pub fn add(&mut self, other: &LayerTotals) {
        for (a, b) in self.ns.iter_mut().zip(other.ns) {
            *a += b;
        }
        self.wall_ns += other.wall_ns;
        self.next_calls += other.next_calls;
        self.hits += other.hits;
        self.misses += other.misses;
        self.admissions += other.admissions;
        self.steps += other.steps;
        self.live_steps += other.live_steps;
        self.idle_steps += other.idle_steps;
        self.resident_sum += other.resident_sum;
        self.lc_completions += other.lc_completions;
        self.be_completions += other.be_completions;
        self.obs_calls += other.obs_calls;
    }
}

/// The shared clock of one traced run: the last boundary instant, the
/// hook that set it, and the totals.
pub struct LayerClock {
    last: Instant,
    prev: Hook,
    pub totals: LayerTotals,
}

impl LayerClock {
    pub fn start() -> RefCell<Self> {
        RefCell::new(Self {
            last: Instant::now(),
            prev: Hook::Start,
            totals: LayerTotals::default(),
        })
    }

    fn add(&mut self, layer: Layer, from: Instant, to: Instant) {
        self.totals.ns[layer as usize] += (to - from).as_nanos() as u64;
    }

    fn enter(&mut self, hook: Hook) -> Instant {
        let now = Instant::now();
        let (prev, last) = (self.prev, self.last);
        self.add(gap_layer(prev, hook), last, now);
        now
    }

    fn leave(&mut self, hook: Hook, own: Layer, entered: Instant) {
        let now = Instant::now();
        self.add(own, entered, now);
        self.last = now;
        self.prev = hook;
    }

    /// Marks the run start; returns the instant the wall is timed from.
    pub fn restart(&mut self) -> Instant {
        self.last = Instant::now();
        self.prev = Hook::Start;
        self.last
    }

    /// Closes the run started at `t0`: the tail after the last hook is
    /// unattributed.
    pub fn finish(&mut self, t0: Instant) {
        let now = Instant::now();
        let last = self.last;
        self.add(Layer::Unattributed, last, now);
        self.totals.wall_ns += (now - t0).as_nanos() as u64;
    }
}

fn timed<R>(clock: &RefCell<LayerClock>, hook: Hook, own: Layer, call: impl FnOnce() -> R) -> R {
    let entered = clock.borrow_mut().enter(hook);
    let out = call();
    clock.borrow_mut().leave(hook, own, entered);
    out
}

/// Untraced-run policy wrapper: records the host latency of every
/// `decide_explained` call and nothing else.
pub struct LatencyProbe<'a> {
    pub inner: &'a mut AdriasPolicy,
    pub latencies_ns: Vec<u32>,
}

impl Policy for LatencyProbe<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> MemoryMode {
        self.decide_explained(ctx).mode
    }

    fn decide_explained(&mut self, ctx: &DecisionContext<'_>) -> ExplainedDecision {
        let t0 = Instant::now();
        let d = self.inner.decide_explained(ctx);
        let ns = t0.elapsed().as_nanos();
        self.latencies_ns
            .push(u32::try_from(ns).unwrap_or(u32::MAX));
        d
    }

    fn lane(&self) -> &'static str {
        self.inner.lane()
    }
}

/// A history window that missed the policy's memo, kept for replay
/// through the predictor's public stages.
pub struct Capture {
    profile: WorkloadProfile,
    window: Vec<MetricVec>,
    preds: (f32, f32),
}

/// At most this many missed windows are captured per traced run.
const CAPTURE_MAX: usize = 64;

/// Traced-run policy wrapper. It mirrors the policy's memo keys (the
/// forecast is keyed on the last Watcher stamp, the history features
/// on the last stamp per class) to split decisions into hits and misses
/// without looking inside the policy.
pub struct TracedPolicy<'a> {
    pub inner: &'a mut AdriasPolicy,
    clock: &'a RefCell<LayerClock>,
    last_stamp: Option<WindowStamp>,
    last_class_stamp: [Option<WindowStamp>; 2],
    pub without_history: u64,
    pub captures: Vec<Capture>,
}

impl<'a> TracedPolicy<'a> {
    pub fn new(inner: &'a mut AdriasPolicy, clock: &'a RefCell<LayerClock>) -> Self {
        Self {
            inner,
            clock,
            last_stamp: None,
            last_class_stamp: [None; 2],
            without_history: 0,
            captures: Vec::new(),
        }
    }
}

impl Policy for TracedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &DecisionContext<'_>) -> MemoryMode {
        self.decide_explained(ctx).mode
    }

    fn decide_explained(&mut self, ctx: &DecisionContext<'_>) -> ExplainedDecision {
        let class = usize::from(ctx.profile.class() == WorkloadClass::LatencyCritical);
        let hit = ctx.stamp.is_some()
            && ctx.stamp == self.last_stamp
            && ctx.stamp == self.last_class_stamp[class];
        if ctx.history.is_some() {
            self.last_stamp = ctx.stamp;
            self.last_class_stamp[class] = ctx.stamp;
        } else {
            self.without_history += 1;
        }
        let own = if hit {
            Layer::PolicyHit
        } else {
            Layer::PolicyMiss
        };
        let inner = &mut *self.inner;
        let d = timed(self.clock, Hook::Decide, own, || {
            inner.decide_explained(ctx)
        });
        {
            let mut clock = self.clock.borrow_mut();
            if hit {
                clock.totals.hits += 1;
            } else {
                clock.totals.misses += 1;
            }
        }
        if let (false, Some(history), Some(l), Some(r)) =
            (hit, ctx.history, d.pred_local, d.pred_remote)
        {
            if self.captures.len() < CAPTURE_MAX {
                self.captures.push(Capture {
                    profile: ctx.profile.clone(),
                    window: history.to_vec(),
                    preds: (l, r),
                });
            }
        }
        d
    }

    fn lane(&self) -> &'static str {
        self.inner.lane()
    }
}

/// Traced-run stream wrapper.
pub struct TracedStream<'a, S> {
    pub inner: S,
    clock: &'a RefCell<LayerClock>,
}

impl<'a, S: ArrivalStream> TracedStream<'a, S> {
    pub fn new(inner: S, clock: &'a RefCell<LayerClock>) -> Self {
        Self { inner, clock }
    }
}

impl<S: ArrivalStream> ArrivalStream for TracedStream<'_, S> {
    fn next_arrival(&mut self) -> Option<ScheduledArrival> {
        self.clock.borrow_mut().totals.next_calls += 1;
        let inner = &mut self.inner;
        timed(self.clock, Hook::NextArrival, Layer::ArrivalNext, || {
            inner.next_arrival()
        })
    }

    fn on_complete(&mut self, finished_s: f64) -> bool {
        let inner = &mut self.inner;
        timed(
            self.clock,
            Hook::StreamComplete,
            Layer::ArrivalOther,
            || inner.on_complete(finished_s),
        )
    }

    fn is_exhausted(&self) -> bool {
        timed(self.clock, Hook::StreamCall, Layer::ArrivalOther, || {
            self.inner.is_exhausted()
        })
    }

    fn final_arrival_hint(&self) -> Option<f64> {
        timed(self.clock, Hook::StreamCall, Layer::ArrivalOther, || {
            self.inner.final_arrival_hint()
        })
    }

    fn drain_remaining(&mut self) -> usize {
        let inner = &mut self.inner;
        timed(self.clock, Hook::StreamCall, Layer::ArrivalOther, || {
            inner.drain_remaining()
        })
    }

    fn source_label(&self) -> &'static str {
        timed(self.clock, Hook::StreamCall, Layer::ArrivalOther, || {
            self.inner.source_label()
        })
    }
}

/// Traced-run observer wrapper. Besides timing the inner observer it
/// checks that every admission completes exactly once.
pub struct TracedObserver<'a, O> {
    pub inner: O,
    clock: &'a RefCell<LayerClock>,
    /// Per deployment index: 0 unseen, 1 admitted, 2 completed.
    state: Vec<u8>,
    pub lifecycle_errors: u64,
}

impl<'a, O: EngineObserver> TracedObserver<'a, O> {
    pub fn new(inner: O, clock: &'a RefCell<LayerClock>, expected: usize) -> Self {
        Self {
            inner,
            clock,
            state: Vec::with_capacity(expected),
            lifecycle_errors: 0,
        }
    }

    /// Admissions that never completed.
    pub fn open_admissions(&self) -> usize {
        self.state.iter().filter(|&&s| s == 1).count()
    }

    fn hook<R>(&mut self, hook: Hook, call: impl FnOnce(&mut O) -> R) -> R {
        self.clock.borrow_mut().totals.obs_calls += 1;
        let inner = &mut self.inner;
        timed(self.clock, hook, Layer::ObsHook, || call(inner))
    }
}

impl<O: EngineObserver> EngineObserver for TracedObserver<'_, O> {
    fn on_decision(
        &mut self,
        at_s: f64,
        id: DeploymentId,
        profile: &WorkloadProfile,
        history: Option<&[MetricVec]>,
        decision: &ExplainedDecision,
        policy_name: &str,
    ) {
        self.hook(Hook::OnDecision, |o| {
            o.on_decision(at_s, id, profile, history, decision, policy_name)
        });
    }

    fn on_step(&mut self, report: &StepReport) {
        {
            // Completions of this step are folded in after `on_step`,
            // so admitted − completed is the residency it stepped.
            let mut clock = self.clock.borrow_mut();
            let t = &mut clock.totals;
            let resident = t.admissions - t.lc_completions - t.be_completions;
            t.steps += 1;
            if t.admissions > 0 {
                t.live_steps += 1;
                t.resident_sum += resident;
                t.idle_steps += u64::from(resident == 0);
            }
        }
        self.hook(Hook::OnStep, |o| o.on_step(report));
    }

    fn on_complete(&mut self, id: DeploymentId, outcome: &AppOutcome) {
        let lc = outcome.class == WorkloadClass::LatencyCritical;
        match self.state.get_mut(id.index() as usize) {
            Some(s) if *s == 1 => *s = 2,
            _ => self.lifecycle_errors += 1,
        }
        {
            let mut clock = self.clock.borrow_mut();
            if lc {
                clock.totals.lc_completions += 1;
            } else {
                clock.totals.be_completions += 1;
            }
        }
        self.hook(Hook::OnComplete { lc }, |o| o.on_complete(id, outcome));
    }

    fn on_run_end(&mut self, report: &RunReport, last_arrival_s: f64) {
        self.hook(Hook::Obs, |o| o.on_run_end(report, last_arrival_s));
    }

    fn on_admitted(
        &mut self,
        id: DeploymentId,
        arrived_s: f64,
        decided_s: f64,
        profile: &WorkloadProfile,
        decision: &ExplainedDecision,
        lane: &'static str,
    ) {
        let i = id.index() as usize;
        if self.state.len() <= i {
            self.state.resize(i + 1, 0);
        }
        if self.state[i] == 0 {
            self.state[i] = 1;
        } else {
            self.lifecycle_errors += 1;
        }
        self.clock.borrow_mut().totals.admissions += 1;
        self.hook(Hook::OnAdmitted, |o| {
            o.on_admitted(id, arrived_s, decided_s, profile, decision, lane)
        });
    }

    fn on_fault(&mut self, at_s: f64) {
        self.hook(Hook::Obs, |o| o.on_fault(at_s));
    }

    fn on_deadline(&mut self, at_s: f64) {
        self.hook(Hook::Obs, |o| o.on_deadline(at_s));
    }

    fn on_stream(&mut self, label: &'static str) {
        self.hook(Hook::Obs, |o| o.on_stream(label));
    }

    fn wall_profiling(&self) -> bool {
        self.inner.wall_profiling()
    }

    fn on_wall(&mut self, label: &str, ns: u64) {
        self.inner.on_wall(label, ns);
    }
}

/// Median host time of each predictor stage over the captured windows.
#[derive(Debug, Clone, Default)]
pub struct ReplayStats {
    pub system_forecast_ns: f64,
    pub history_features_ns: f64,
    pub head_ns: f64,
    pub calls: usize,
    /// Captures whose replayed prediction differs from the decision's.
    pub mismatches: usize,
}

/// Replay rounds over the captured windows, for steadier medians.
const REPLAY_ROUNDS: usize = 5;

/// Replays captured windows through `SystemStateModel::predict_into`,
/// `PerfModel::history_features_into` and
/// `PerfModel::predict_both_from_features` — the stages of a memo miss —
/// timing each and checking the result equals the policy's prediction.
pub fn replay(stack: &TrainedStack, captures: &[Capture]) -> ReplayStats {
    let system = &stack.system_model;
    let mut sys_scratch = system.make_scratch();
    let mut be_scratch = stack.be_model.make_scratch();
    let mut lc_scratch = stack.lc_model.make_scratch();
    let (mut sys_ns, mut hist_ns, mut head_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut mismatches = 0;
    for round in 0..REPLAY_ROUNDS {
        for c in captures {
            let (model, scratch) = match c.profile.class() {
                WorkloadClass::LatencyCritical => (&stack.lc_model, &mut lc_scratch),
                _ => (&stack.be_model, &mut be_scratch),
            };
            let signature = stack
                .signatures
                .iter()
                .find(|s| s.app_name() == c.profile.name())
                .expect("every catalog app has a signature");
            let sig_window = model.normalized_signature_window(signature);
            let h_k = model.signature_features_into(&sig_window, scratch).clone();

            let t0 = Instant::now();
            let s_hat = black_box(system.predict_into(black_box(&c.window), &mut sys_scratch));
            let t1 = Instant::now();
            let h_s = black_box(model.history_features_into(black_box(&c.window), scratch)).clone();
            let t2 = Instant::now();
            let [l, r] = black_box(model.predict_both_from_features(
                &h_s,
                &h_k,
                [MemoryMode::Local, MemoryMode::Remote],
                Some(&s_hat),
                scratch,
            ));
            let t3 = Instant::now();
            sys_ns.push((t1 - t0).as_nanos() as f64);
            hist_ns.push((t2 - t1).as_nanos() as f64);
            head_ns.push((t3 - t2).as_nanos() as f64);
            if round == 0
                && (l.to_bits(), r.to_bits()) != (c.preds.0.to_bits(), c.preds.1.to_bits())
            {
                mismatches += 1;
            }
        }
    }
    ReplayStats {
        system_forecast_ns: crate::stats::median(&mut sys_ns),
        history_features_ns: crate::stats::median(&mut hist_ns),
        head_ns: crate::stats::median(&mut head_ns),
        calls: sys_ns.len(),
        mismatches,
    }
}

/// Multiply-add operation count of one full memo miss on the BE model
/// (system forecast + history branch + head), from the tensor shapes:
/// 2 FLOP per multiply-accumulate of every GEMM; element-wise gate and
/// normalisation work is not counted.
pub fn miss_mflop(stack: &TrainedStack) -> f64 {
    let seq = SEQ_LEN as f64;
    let m = METRIC_COUNT as f64;
    let lstm =
        |input: f64, hidden: f64, batch: f64| seq * batch * 2.0 * 4.0 * hidden * (input + hidden);
    let linear = |input: f64, output: f64, batch: f64| 2.0 * input * output * batch;
    let sys = stack.system_model.config();
    let (hs, bs) = (sys.hidden as f64, sys.block_width as f64);
    let system = lstm(m, hs, 1.0)
        + lstm(hs, hs, 1.0)
        + linear(hs, bs, 1.0)
        + 2.0 * linear(bs, bs, 1.0)
        + linear(bs, m, 1.0);
    let perf = stack.be_model.config();
    let (hp, bp) = (perf.hidden as f64, perf.block_width as f64);
    // Both candidate modes run as one batch of two rows.
    let history = lstm(m, hp, 2.0) + lstm(hp, hp, 2.0);
    // Head input: [h_s | h_k | side], side = mode one-hot + Ŝ.
    let concat = 2.0 * hp + 2.0 + m;
    let head = linear(concat, bp, 2.0) + 2.0 * linear(bp, bp, 2.0) + linear(bp, 1.0, 2.0);
    (system + history + head) / 1e6
}

/// Renders the observed run's five exports in memory and checks each
/// with its in-tree validator. Returns the rendering time in ms and the
/// total size in bytes, or the first failure.
pub fn check_exports(obs: &Observer) -> Result<(f64, usize), String> {
    use adrias_obs::export::{
        to_chrome_trace, to_jsonl_decisions, to_jsonl_events, to_jsonl_metrics, to_jsonl_spans,
    };
    use adrias_obs::validate::{
        validate_chrome_trace, validate_jsonl_decisions, validate_jsonl_events,
        validate_jsonl_metrics, validate_jsonl_spans, ValidateError,
    };
    type Validator = fn(&str) -> Result<usize, ValidateError>;
    let t0 = Instant::now();
    let exports: [(&str, String, Validator); 5] = [
        ("events.jsonl", to_jsonl_events(obs), validate_jsonl_events),
        (
            "decisions.jsonl",
            to_jsonl_decisions(obs),
            validate_jsonl_decisions,
        ),
        (
            "metrics.jsonl",
            to_jsonl_metrics(obs),
            validate_jsonl_metrics,
        ),
        ("spans.jsonl", to_jsonl_spans(obs), validate_jsonl_spans),
        ("trace.json", to_chrome_trace(obs), validate_chrome_trace),
    ];
    let render_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut bytes = 0;
    for (name, text, validate) in &exports {
        validate(text).map_err(|e| format!("{name}: {e}"))?;
        bytes += text.len();
    }
    Ok((render_ms, bytes))
}
