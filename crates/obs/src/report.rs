//! Human-readable run report rendered from an [`Observer`].
//!
//! This is the one output allowed to show wall-clock numbers (clearly
//! marked host-dependent); everything else it prints is derived from
//! the same deterministic state as the JSONL exports.

use std::fmt::Write as _;

use crate::observer::Observer;

/// Sketch-name prefix under which the sim observer records per-app
/// contention slowdowns; the report ranks these as "top slowdown
/// sources".
pub const SLOWDOWN_PREFIX: &str = "sim.slowdown.app.";

/// Renders the report.
pub fn render_report(obs: &Observer) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== Adrias observability report ===");
    let _ = writeln!(
        out,
        "trace: {} events retained ({} dropped, capacity {})",
        obs.tracer.len(),
        obs.tracer.dropped(),
        obs.tracer.capacity()
    );
    if obs.tracer.dropped() > 0 {
        let _ = writeln!(
            out,
            "  WARNING: trace ring overflowed, {} oldest events lost",
            obs.tracer.dropped()
        );
    }
    if obs.spans.enabled() {
        let _ = writeln!(
            out,
            "spans: {} lifecycle records closed ({} open, {} dropped, capacity {})",
            obs.spans.len(),
            obs.spans.open_count(),
            obs.spans.dropped(),
            obs.spans.capacity()
        );
        if obs.spans.dropped() > 0 {
            let _ = writeln!(
                out,
                "  WARNING: span ring overflowed, {} oldest lifecycles lost",
                obs.spans.dropped()
            );
        }
    }
    let _ = writeln!(
        out,
        "audit: {} decisions, near-flip band {:.1}%",
        obs.audit.len(),
        f64::from(crate::audit::NEAR_FLIP_BAND) * 100.0
    );

    render_decision_distribution(&mut out, obs);
    render_near_flips(&mut out, obs);
    render_burn(&mut out, obs);
    render_adaptation(&mut out, obs);
    render_slowdown_sources(&mut out, obs);
    render_metrics(&mut out, obs);
    render_wall_clock(&mut out, obs);
    out
}

fn render_burn(out: &mut String, obs: &Observer) {
    if obs.burn.is_empty() {
        return;
    }
    let _ = writeln!(out, "\n-- SLO burn alerts: {} --", obs.burn.len());
    for e in obs.burn.iter().take(10) {
        let _ = writeln!(
            out,
            "  t={:>7.1}s window {:>5.0}s rate {:.0}% ({}/{} violations)",
            e.at_s,
            e.window_s,
            e.rate * 100.0,
            e.violations,
            e.total
        );
    }
    if obs.burn.len() > 10 {
        let _ = writeln!(out, "  ... and {} more", obs.burn.len() - 10);
    }
}

fn render_adaptation(out: &mut String, obs: &Observer) {
    let log = &obs.adapt;
    if log.is_empty() {
        return;
    }
    let captured = log.captures().iter().filter(|c| c.skip.is_none()).count();
    let skipped = log.captures().len() - captured;
    let _ = writeln!(out, "\n-- online adaptation --");
    let _ = writeln!(
        out,
        "  captures: {captured} stored, {skipped} skipped (of {} attempts)",
        log.captures().len()
    );
    for skip in crate::adapt::CaptureSkip::ALL {
        let n = log
            .captures()
            .iter()
            .filter(|c| c.skip == Some(skip))
            .count();
        if n > 0 {
            let _ = writeln!(out, "    skip {:<20} {n:>5}", skip.tag());
        }
    }
    let _ = writeln!(out, "  drift events: {}", log.drifts().len());
    for e in log.drifts().iter().take(10) {
        let _ = writeln!(
            out,
            "    t={:>7.1}s {:<18} stat {:.3} > λ={:.3} (mean {:.3} over {} samples)",
            e.at_s, e.stream, e.stat, e.threshold, e.mean, e.samples
        );
    }
    let _ = writeln!(out, "  model swaps: {}", log.swaps().len());
    for s in log.swaps().iter().take(10) {
        let _ = writeln!(
            out,
            "    t={:>7.1}s {:<3} v{} -> v{} {:<8} mae {:.4} -> {:.4} (margin {:+.3})",
            s.at_s,
            s.target,
            s.incumbent_version,
            s.candidate_version,
            s.verdict.tag(),
            s.incumbent_mae,
            s.candidate_mae,
            s.gate_margin
        );
        for reason in &s.reasons {
            let _ = writeln!(out, "      reason: {reason}");
        }
    }
}

fn render_decision_distribution(out: &mut String, obs: &Observer) {
    if obs.audit.is_empty() {
        return;
    }
    let _ = writeln!(out, "\n-- decision distribution --");
    let total = obs.registry.counter("orchestrator.decisions").max(1);
    for (name, v) in obs.registry.counters() {
        if let Some(suffix) = name.strip_prefix("orchestrator.decisions.") {
            let _ = writeln!(
                out,
                "  {:<8} {:>6}  ({:.1}%)",
                suffix,
                v,
                v as f64 / total as f64 * 100.0
            );
        }
    }
    let _ = writeln!(out, "  by rule:");
    for (name, v) in obs.registry.counters() {
        if let Some(rule) = name.strip_prefix("orchestrator.rule.") {
            let _ = writeln!(out, "    {rule:<22} {v:>6}");
        }
    }
}

fn render_near_flips(out: &mut String, obs: &Observer) {
    let flips: Vec<_> = obs.audit.near_flips().collect();
    let _ = writeln!(out, "\n-- near-flip decisions: {} --", flips.len());
    for r in flips.iter().take(10) {
        let margin = r.margin.unwrap_or(0.0);
        let _ = writeln!(
            out,
            "  #{:<4} t={:>7.1}s {:<24} {:<3} -> {:<6} margin {:+.3}",
            r.seq, r.input.at_s, r.input.app, r.input.class, r.input.chosen, margin
        );
    }
    if flips.len() > 10 {
        let _ = writeln!(out, "  ... and {} more", flips.len() - 10);
    }
}

fn render_slowdown_sources(out: &mut String, obs: &Observer) {
    let mut sources: Vec<(&str, f64, u64)> = obs
        .registry
        .sketches()
        .filter_map(|(name, s)| {
            name.strip_prefix(SLOWDOWN_PREFIX)
                .map(|app| (app, s.quantile(0.5), s.count()))
        })
        .collect();
    if sources.is_empty() {
        return;
    }
    sources.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
    let _ = writeln!(
        out,
        "\n-- top slowdown sources (median contention slowdown) --"
    );
    for (app, p50, n) in sources.iter().take(8) {
        let _ = writeln!(out, "  {app:<24} x{p50:<6.3} over {n} completions");
    }
}

fn render_metrics(out: &mut String, obs: &Observer) {
    if obs.registry.is_empty() {
        return;
    }
    let _ = writeln!(out, "\n-- metrics --");
    for (name, v) in obs.registry.counters() {
        let _ = writeln!(out, "  counter {name:<38} {v}");
    }
    for (name, v) in obs.registry.gauges() {
        let _ = writeln!(out, "  gauge   {name:<38} {v}");
    }
    for (name, s) in obs.registry.sketches() {
        let _ = writeln!(
            out,
            "  sketch  {name:<38} n={} p50={:.4} p99={:.4}",
            s.count(),
            s.quantile(0.5),
            s.quantile(0.99)
        );
    }
}

fn render_wall_clock(out: &mut String, obs: &Observer) {
    let totals = obs.tracer.wall_totals();
    if totals.is_empty() {
        return;
    }
    let _ = writeln!(out, "\n-- wall clock (host-dependent, not exported) --");
    for (label, ms) in totals {
        let _ = writeln!(out, "  {label:<38} {ms:.1} ms");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{DecisionInput, DecisionRule, WindowSummary};
    use adrias_workloads::{MemoryMode, WorkloadClass};

    #[test]
    fn report_mentions_all_sections() {
        let mut obs = Observer::default();
        obs.record_decision(DecisionInput {
            at_s: 1.0,
            deployment_id: 0,
            app: "gmm",
            class: WorkloadClass::BestEffort,
            window: WindowSummary::empty(),
            pred_local: Some(99.0),
            pred_remote: Some(100.0),
            rule: DecisionRule::BetaSlack { beta: 1.0 },
            chosen: MemoryMode::Local,
            policy: "adrias",
        });
        obs.registry
            .observe(&format!("{SLOWDOWN_PREFIX}in-memory-analytics"), 1.8);
        let text = render_report(&obs);
        assert!(text.contains("decision distribution"));
        assert!(text.contains("near-flip decisions: 1"));
        assert!(text.contains("top slowdown sources"));
        assert!(text.contains("in-memory-analytics"));
        assert!(text.contains("x1.800  over 1 completions"));
        assert!(!text.contains("wall clock"), "no wall data was recorded");
    }

    #[test]
    fn adaptation_section_appears_only_when_recorded() {
        use crate::adapt::{CaptureRecord, CaptureSkip, DriftEvent};
        let mut obs = Observer::default();
        assert!(!render_report(&obs).contains("online adaptation"));
        obs.record_capture(CaptureRecord {
            app: "pca",
            arrived_s: 0.0,
            finished_s: 1.0,
            rows: 0,
            co_runners: 0,
            skip: Some(CaptureSkip::EmptyResidency),
        });
        obs.record_drift(DriftEvent {
            at_s: 50.0,
            stream: "be.rel_err",
            samples: 9,
            mean: 0.5,
            stat: 1.2,
            threshold: 1.0,
        });
        let text = render_report(&obs);
        assert!(text.contains("online adaptation"));
        assert!(text.contains("empty_residency"));
        assert!(text.contains("drift events: 1"));
    }

    #[test]
    fn forced_trace_drops_surface_a_warning() {
        let mut obs = Observer {
            tracer: crate::trace::Tracer::new(2),
            ..Observer::default()
        };
        for t in 0..5 {
            obs.tracer.instant("e", "t", f64::from(t), 0, vec![]);
        }
        let text = render_report(&obs);
        assert!(text.contains("(3 dropped, capacity 2)"));
        assert!(text.contains("WARNING: trace ring overflowed, 3 oldest events lost"));
        // A drop-free run stays warning-free.
        assert!(!render_report(&Observer::default()).contains("WARNING"));
    }

    #[test]
    fn burn_and_sketch_sections_render() {
        let mut obs = Observer::default();
        obs.record_burn(crate::burn::BurnEvent {
            at_s: 30.0,
            window_s: 60.0,
            rate: 0.6,
            violations: 3,
            total: 5,
        });
        obs.registry.observe("orchestrator.queue_wait_s", 0.25);
        let text = render_report(&obs);
        assert!(text.contains("SLO burn alerts: 1"));
        assert!(text.contains("window    60s rate 60%"));
        assert!(text.contains("sketch  orchestrator.queue_wait_s"));
    }

    #[test]
    fn wall_clock_section_appears_only_when_recorded() {
        let mut obs = Observer::new(crate::ObsConfig {
            record_wall: true,
            ..crate::ObsConfig::default()
        });
        obs.tracer
            .time_wall("train", || std::hint::black_box(1 + 1));
        assert!(render_report(&obs).contains("wall clock"));
    }
}
