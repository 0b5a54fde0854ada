//! The [`Observer`]: one bundle of tracer + registry + audit trail
//! attached to an engine run.
//!
//! The engine itself knows nothing about exports: it calls the thin
//! recording methods here, and the `export` module turns a finished
//! `Observer` into JSONL / Chrome trace files. An observer is plain
//! owned state — no globals, no interior mutability — so two concurrent
//! runs can each carry their own without contention, and dropping one
//! discards its data.

use adrias_nn::TrainStats;

use crate::adapt::AdaptationLog;
use crate::audit::{AuditTrail, DecisionInput};
use crate::burn::BurnEvent;
use crate::flight::FlightRecorder;
use crate::registry::Registry;
use crate::spans::SpanStore;
use crate::trace::Tracer;

/// Maximum retained trace events (ring capacity).
const TRACE_CAPACITY: usize = 65_536;
/// Maximum retained closed lifecycle spans (ring capacity).
const SPAN_CAPACITY: usize = 65_536;
/// Maximum retained flight-recorder entries (ring capacity).
const FLIGHT_CAPACITY: usize = 4096;

/// Configuration for an [`Observer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsConfig {
    /// Whether to accumulate host wall-clock timings (kept out of the
    /// deterministic exports; shown in the human report and the
    /// flamegraph file only).
    pub record_wall: bool,
    /// Whether to record per-deployment lifecycle spans (and feed the
    /// decision-latency / queue-wait / slowdown quantile sketches).
    pub record_spans: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            record_wall: false,
            record_spans: true,
        }
    }
}

/// Collected observability state for one run.
///
/// # Examples
///
/// ```
/// use adrias_obs::{Observer, ObsConfig};
///
/// let mut obs = Observer::new(ObsConfig::default());
/// obs.tracer.instant("deploy", "engine", 1.0, 0, vec![]);
/// obs.registry.counter_add("sim.steps", 1);
/// assert_eq!(obs.registry.counter("sim.steps"), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Observer {
    /// Deterministic event trace.
    pub tracer: Tracer,
    /// Counters, gauges, quantile sketches.
    pub registry: Registry,
    /// Orchestration decision audit trail.
    pub audit: AuditTrail,
    /// Online-adaptation audit log (captures, drift, model swaps).
    pub adapt: AdaptationLog,
    /// Per-deployment lifecycle span trees.
    pub spans: SpanStore,
    /// Bounded ring of recent engine events (post-mortem source).
    pub flight: FlightRecorder,
    /// SLO burn alerts fired during the run, in trigger order.
    pub burn: Vec<BurnEvent>,
}

impl Observer {
    /// Creates an observer from `cfg`.
    pub fn new(cfg: ObsConfig) -> Self {
        let mut tracer = Tracer::new(TRACE_CAPACITY);
        if cfg.record_wall {
            tracer = tracer.with_wall_clock();
        }
        Self {
            tracer,
            registry: Registry::new(),
            audit: AuditTrail::new(),
            adapt: AdaptationLog::new(),
            spans: SpanStore::new(SPAN_CAPACITY, cfg.record_spans),
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
            burn: Vec::new(),
        }
    }

    /// Records one orchestration decision: appends it to the audit
    /// trail, bumps the per-placement counters, and emits an instant
    /// trace event on the engine track.
    pub fn record_decision(&mut self, input: DecisionInput) {
        // This runs on every orchestration decision, so the registry
        // keys and classification args are static strings rather than
        // formatted ones (they must match the `Display` impls the
        // exports use).
        use adrias_workloads::{MemoryMode, WorkloadClass};
        let mode_key = match input.chosen {
            MemoryMode::Local => "orchestrator.decisions.local",
            MemoryMode::Remote => "orchestrator.decisions.remote",
        };
        let rule_key = match input.rule {
            crate::audit::DecisionRule::BetaSlack { .. } => "orchestrator.rule.beta_slack",
            crate::audit::DecisionRule::QosThreshold { .. } => "orchestrator.rule.qos_threshold",
            crate::audit::DecisionRule::UnknownRemoteFirst => {
                "orchestrator.rule.unknown_remote_first"
            }
            crate::audit::DecisionRule::WarmupDefault => "orchestrator.rule.warmup_default",
            crate::audit::DecisionRule::Static => "orchestrator.rule.static",
            crate::audit::DecisionRule::Forced => "orchestrator.rule.forced",
        };
        self.registry.counter_add("orchestrator.decisions", 1);
        self.registry.counter_add(mode_key, 1);
        self.registry.counter_add(rule_key, 1);
        let class = match input.class {
            WorkloadClass::BestEffort => "BE",
            WorkloadClass::LatencyCritical => "LC",
            WorkloadClass::Interference => "iBench",
        };
        let mode = match input.chosen {
            MemoryMode::Local => "local",
            MemoryMode::Remote => "remote",
        };
        let mut args = vec![
            ("app", input.app.into()),
            ("class", class.into()),
            ("mode", mode.into()),
            ("rule", input.rule.tag().into()),
        ];
        if let Some(l) = input.pred_local {
            args.push(("pred_local", l.into()));
        }
        if let Some(r) = input.pred_remote {
            args.push(("pred_remote", r.into()));
        }
        self.tracer
            .instant("decision", "decision", input.at_s, 0, args);
        self.audit.record(input);
    }

    /// Records one SLO burn alert: stores the typed event, bumps the
    /// alert counter, and emits an instant trace event on the engine
    /// track (`cat = "slo"`).
    pub fn record_burn(&mut self, event: BurnEvent) {
        self.registry.counter_add("slo.burn.alerts", 1);
        self.tracer.instant(
            "slo_burn",
            "slo",
            event.at_s,
            0,
            vec![
                ("window_s", event.window_s.into()),
                ("rate", event.rate.into()),
                ("violations", (event.violations as f64).into()),
                ("total", (event.total as f64).into()),
            ],
        );
        self.burn.push(event);
    }

    /// Records one signature-capture attempt: appends it to the
    /// adaptation log, bumps the capture counters, and emits an instant
    /// trace event on the engine track (`cat = "adapt"`).
    pub fn record_capture(&mut self, record: crate::adapt::CaptureRecord) {
        let key = match record.skip {
            None => "adapt.captures",
            Some(crate::adapt::CaptureSkip::Interference) => "adapt.capture_skip.interference",
            Some(crate::adapt::CaptureSkip::NotRemote) => "adapt.capture_skip.not_remote",
            Some(crate::adapt::CaptureSkip::AlreadyKnown) => "adapt.capture_skip.already_known",
            Some(crate::adapt::CaptureSkip::DuplicateInRun) => {
                "adapt.capture_skip.duplicate_in_run"
            }
            Some(crate::adapt::CaptureSkip::EmptyResidency) => "adapt.capture_skip.empty_residency",
        };
        self.registry.counter_add(key, 1);
        let mut args = vec![
            ("app", record.app.into()),
            ("rows", (record.rows as f64).into()),
            ("co_runners", (record.co_runners as f64).into()),
        ];
        if let Some(skip) = record.skip {
            args.push(("skip", skip.tag().into()));
        }
        self.tracer
            .instant("capture", "adapt", record.finished_s, 0, args);
        self.adapt.record_capture(record);
    }

    /// Records one drift detection: appends it to the adaptation log,
    /// bumps the drift counter, and emits an instant trace event.
    pub fn record_drift(&mut self, event: crate::adapt::DriftEvent) {
        self.registry.counter_add("adapt.drift_events", 1);
        self.tracer.instant(
            "drift",
            "adapt",
            event.at_s,
            0,
            vec![
                ("stream", event.stream.into()),
                ("samples", (event.samples as f64).into()),
                ("mean", event.mean.into()),
                ("stat", event.stat.into()),
                ("threshold", event.threshold.into()),
            ],
        );
        self.adapt.record_drift(event);
    }

    /// Records one swap-gate verdict: appends it to the adaptation log,
    /// bumps the verdict counter, and emits an instant trace event.
    pub fn record_swap(&mut self, record: crate::adapt::ModelSwapRecord) {
        let key = match record.verdict {
            crate::adapt::SwapVerdict::Swapped => "adapt.swaps.swapped",
            crate::adapt::SwapVerdict::Rejected => "adapt.swaps.rejected",
        };
        self.registry.counter_add(key, 1);
        self.tracer.instant(
            "model_swap",
            "adapt",
            record.at_s,
            0,
            vec![
                ("target", record.target.into()),
                ("verdict", record.verdict.tag().into()),
                (
                    "incumbent_version",
                    (record.incumbent_version as f64).into(),
                ),
                (
                    "candidate_version",
                    (record.candidate_version as f64).into(),
                ),
                ("gate_margin", record.gate_margin.into()),
            ],
        );
        self.adapt.record_swap(record);
    }

    /// Records the counters of a finished training run under
    /// `prefix` (e.g. `predictor.system`), plus its per-epoch losses.
    pub fn record_train_stats(&mut self, prefix: &str, stats: &TrainStats, epoch_losses: &[f32]) {
        self.registry
            .counter_add(&format!("{prefix}.epochs"), stats.epochs);
        self.registry
            .counter_add(&format!("{prefix}.minibatches"), stats.minibatches);
        self.registry
            .counter_add(&format!("{prefix}.grad_chunks"), stats.grad_chunks);
        self.registry
            .counter_add(&format!("{prefix}.samples"), stats.samples);
        for &loss in epoch_losses {
            self.registry
                .observe(&format!("{prefix}.epoch_loss"), f64::from(loss));
        }
        if let Some(&last) = epoch_losses.last() {
            self.registry
                .gauge_set(&format!("{prefix}.final_loss"), f64::from(last));
        }
    }
}

impl Default for Observer {
    fn default() -> Self {
        Self::new(ObsConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{DecisionRule, WindowSummary};
    use adrias_workloads::{MemoryMode, WorkloadClass};

    #[test]
    fn record_decision_updates_all_three_pillars() {
        let mut obs = Observer::default();
        obs.record_decision(DecisionInput {
            at_s: 2.0,
            deployment_id: 1,
            app: "gmm",
            class: WorkloadClass::BestEffort,
            window: WindowSummary::empty(),
            pred_local: Some(80.0),
            pred_remote: Some(100.0),
            rule: DecisionRule::BetaSlack { beta: 1.0 },
            chosen: MemoryMode::Local,
            policy: "adrias",
        });
        assert_eq!(obs.audit.len(), 1);
        assert_eq!(obs.registry.counter("orchestrator.decisions"), 1);
        assert_eq!(obs.registry.counter("orchestrator.decisions.local"), 1);
        assert_eq!(obs.registry.counter("orchestrator.rule.beta_slack"), 1);
        assert_eq!(obs.tracer.len(), 1);
    }

    #[test]
    fn record_burn_updates_counter_trace_and_typed_log() {
        let mut obs = Observer::default();
        obs.record_burn(crate::burn::BurnEvent {
            at_s: 42.0,
            window_s: 60.0,
            rate: 0.75,
            violations: 3,
            total: 4,
        });
        assert_eq!(obs.registry.counter("slo.burn.alerts"), 1);
        assert_eq!(obs.tracer.len(), 1);
        assert_eq!(obs.burn.len(), 1);
        assert_eq!(obs.burn[0].window_s, 60.0);
    }

    #[test]
    fn train_stats_land_in_registry() {
        let mut obs = Observer::default();
        let mut stats = TrainStats::new();
        stats.record_minibatch(32, 8);
        stats.record_epoch();
        obs.record_train_stats("predictor.system", &stats, &[0.9, 0.4]);
        assert_eq!(obs.registry.counter("predictor.system.epochs"), 1);
        assert_eq!(obs.registry.counter("predictor.system.grad_chunks"), 4);
        assert_eq!(
            obs.registry
                .sketch("predictor.system.epoch_loss")
                .unwrap()
                .count(),
            2
        );
        let last = obs.registry.gauge("predictor.system.final_loss").unwrap();
        assert!((last - 0.4f64).abs() < 1e-6);
    }
}
