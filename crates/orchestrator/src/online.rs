//! On-line signature capture (§V-C).
//!
//! "When a new workload is deployed on the system, if Adrias does not
//! own any prior information regarding its application signature, it
//! schedules it on the remote memory, captures and stores the respective
//! metrics." [`AdriasPolicy`] already implements the remote-first rule;
//! this module implements the *capture* half: after a scenario runs,
//! extract the metric sequences observed during the residency of every
//! unknown remote-mode application and turn them into signatures the
//! policy can store for subsequent arrivals.
//!
//! Captured signatures are noisier than the offline isolated-remote ones
//! (they include co-runner traffic), which is exactly the trade-off the
//! paper accepts for unknown applications until a retraining pass
//! happens.

use adrias_obs::{CaptureRecord, CaptureSkip, Observer};
use adrias_telemetry::MetricVec;
use adrias_workloads::{AppSignature, MemoryMode, WorkloadClass};

use crate::adrias::AdriasPolicy;
use crate::engine::RunReport;

/// Extracts candidate signatures for applications the policy does not
/// know yet, from one finished engine run, together with one
/// [`CaptureRecord`] per completed deployment explaining what happened
/// to it — stored, or skipped and why.
///
/// A candidate is produced for the **first completed remote-mode
/// deployment** of each unknown BE/LC application; the signature rows
/// are the Watcher samples covering its residency. Every other outcome
/// gets an audit record with the first skip reason that applied, in
/// rule order: interference stressor, not remote, already known,
/// duplicate in this run, empty residency clip (a residency that rounds
/// to zero trace rows — previously a silent drop).
pub fn capture_unknown_signatures(
    report: &RunReport,
    is_known: impl Fn(&str) -> bool,
) -> (Vec<AppSignature>, Vec<CaptureRecord>) {
    let mut captured: Vec<AppSignature> = Vec::new();
    let mut records: Vec<CaptureRecord> = Vec::with_capacity(report.outcomes.len());
    for (i, o) in report.outcomes.iter().enumerate() {
        let lo = (o.arrived_s.floor() as usize).min(report.samples.len());
        let hi = (o.finished_s.ceil() as usize).min(report.samples.len());
        let skip = if o.class == WorkloadClass::Interference {
            Some(CaptureSkip::Interference)
        } else if o.mode != MemoryMode::Remote {
            Some(CaptureSkip::NotRemote)
        } else if is_known(&o.name) {
            Some(CaptureSkip::AlreadyKnown)
        } else if captured.iter().any(|s| s.app_name() == o.name) {
            Some(CaptureSkip::DuplicateInRun)
        } else if hi <= lo {
            Some(CaptureSkip::EmptyResidency)
        } else {
            None
        };
        let co_runners = report
            .outcomes
            .iter()
            .enumerate()
            .filter(|(j, other)| {
                *j != i && other.arrived_s < o.finished_s && other.finished_s > o.arrived_s
            })
            .count();
        records.push(CaptureRecord {
            app: adrias_obs::intern(&o.name),
            arrived_s: o.arrived_s,
            finished_s: o.finished_s,
            rows: hi.saturating_sub(lo),
            co_runners,
            skip,
        });
        if skip.is_none() {
            let rows: Vec<MetricVec> = report.samples[lo..hi].iter().map(|s| *s.vec()).collect();
            captured.push(AppSignature::new(o.name.clone(), rows));
        }
    }
    (captured, records)
}

/// Runs the full §V-C loop on a policy: capture signatures for every
/// application the policy did not know in `report`, record every
/// completed deployment's capture attempt in `obs` (stored captures and
/// skip reasons alike), store the signatures, and return how many were
/// added.
pub fn absorb_signatures(
    policy: &mut AdriasPolicy,
    report: &RunReport,
    obs: &mut Observer,
) -> usize {
    let (captured, records) = capture_unknown_signatures(report, |name| policy.knows(name));
    for record in records {
        obs.record_capture(record);
    }
    let count = captured.len();
    for sig in captured {
        policy.store_signature(sig);
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::AllRemotePolicy;
    use crate::engine::{run_stream_hooked, EngineConfig, ScheduleStream, ScheduledArrival};
    use adrias_sim::TestbedConfig;
    use adrias_workloads::spark;

    fn remote_run(apps: &[&str]) -> RunReport {
        let arrivals: Vec<ScheduledArrival> = apps
            .iter()
            .enumerate()
            .map(|(i, name)| ScheduledArrival::new(i as f64 * 10.0, spark::by_name(name).unwrap()))
            .collect();
        let mut policy = AllRemotePolicy::new();
        run_stream_hooked(
            TestbedConfig::noiseless(),
            EngineConfig {
                lc_latency_samples: 500,
                ..EngineConfig::default()
            },
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut policy,
            &mut (),
        )
    }

    #[test]
    fn captures_only_unknown_remote_apps() {
        let report = remote_run(&["gmm", "pca", "gmm"]);
        let (sigs, _) = capture_unknown_signatures(&report, |name| name == "pca");
        assert_eq!(sigs.len(), 1, "gmm once, pca skipped as known");
        assert_eq!(sigs[0].app_name(), "gmm");
        assert!(!sigs[0].is_empty());
    }

    #[test]
    fn captured_rows_cover_the_residency() {
        let report = remote_run(&["wordcount"]);
        let (sigs, _) = capture_unknown_signatures(&report, |_| false);
        let outcome = &report.outcomes[0];
        let expected = (outcome.finished_s.ceil() - outcome.arrived_s.floor()) as usize;
        assert!(
            (sigs[0].len() as i64 - expected as i64).abs() <= 1,
            "signature rows {} vs residency {}",
            sigs[0].len(),
            expected
        );
    }

    #[test]
    fn local_mode_apps_are_not_captured() {
        use crate::baselines::AllLocalPolicy;
        let arrivals = vec![ScheduledArrival::new(0.0, spark::by_name("gmm").unwrap())];
        let mut policy = AllLocalPolicy::new();
        let report = run_stream_hooked(
            TestbedConfig::noiseless(),
            EngineConfig::default(),
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut policy,
            &mut (),
        );
        assert!(capture_unknown_signatures(&report, |_| false).0.is_empty());
    }

    #[test]
    fn duplicate_arrivals_capture_once() {
        let report = remote_run(&["lda", "lda", "lda"]);
        let (sigs, _) = capture_unknown_signatures(&report, |_| false);
        assert_eq!(sigs.len(), 1);
    }

    #[test]
    fn audited_capture_reports_every_outcome_with_skip_reasons() {
        let report = remote_run(&["gmm", "pca", "gmm"]);
        let (sigs, records) = capture_unknown_signatures(&report, |name| name == "pca");
        assert_eq!(sigs.len(), 1);
        assert_eq!(records.len(), report.outcomes.len());
        // Records follow completion order; find each app's verdict.
        let skip_of = |app: &str| -> Vec<Option<CaptureSkip>> {
            records
                .iter()
                .filter(|r| r.app == app)
                .map(|r| r.skip)
                .collect()
        };
        assert_eq!(skip_of("pca"), vec![Some(CaptureSkip::AlreadyKnown)]);
        let gmm = skip_of("gmm");
        assert!(gmm.contains(&None), "first gmm completion is stored");
        assert!(
            gmm.contains(&Some(CaptureSkip::DuplicateInRun)),
            "second gmm completion is a duplicate"
        );
        for r in &records {
            if r.skip.is_none() {
                assert!(r.rows >= 1, "stored captures carry their row count");
            }
            assert!(r.finished_s >= r.arrived_s);
        }
    }

    /// Regression: a residency that clips to zero trace rows used to be
    /// a silent `continue`; it must now surface as an
    /// [`CaptureSkip::EmptyResidency`] audit record.
    #[test]
    fn empty_residency_clip_is_reported_not_silently_dropped() {
        use crate::engine::AppOutcome;
        use adrias_workloads::WorkloadClass;
        // Hand-built report: the trace is empty (e.g. truncated), so the
        // only outcome's residency clips to zero rows.
        let report = RunReport {
            policy: "test".to_owned(),
            outcomes: vec![AppOutcome {
                name: "ghost".to_owned(),
                class: WorkloadClass::BestEffort,
                mode: MemoryMode::Remote,
                policy_decided: true,
                arrived_s: 10.0,
                finished_s: 12.0,
                runtime_s: 2.0,
                mean_slowdown: 1.0,
                p99_ms: None,
                p999_ms: None,
                lc_total_time_s: None,
            }],
            samples: Vec::new(),
            link_bytes: 0.0,
            end_time_s: 12.0,
            unfinished: 0,
        };
        let (sigs, records) = capture_unknown_signatures(&report, |_| false);
        assert!(sigs.is_empty());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].skip, Some(CaptureSkip::EmptyResidency));
        assert_eq!(records[0].rows, 0);
        assert_eq!(records[0].co_runners, 0);
    }

    /// The §V-C round trip under interference: an unknown app captured
    /// remote-first amid a co-runner must round-trip through
    /// `store_signature` and, on a clean re-run, produce the same
    /// decision as a policy seeded with the offline isolated-remote
    /// signature.
    #[test]
    fn captured_signature_round_trips_to_the_same_decision_as_offline() {
        use crate::engine::{run_isolated, EngineConfig};
        use crate::test_support::policy_with_beta;
        use crate::ObservedRun;
        use adrias_obs::{DecisionRule, Observer};
        use adrias_workloads::{ibench, IbenchKind};

        let engine = EngineConfig {
            lc_latency_samples: 500,
            ..EngineConfig::default()
        };
        let schedule = vec![
            ScheduledArrival::new(0.0, ibench::profile(IbenchKind::MemBw))
                .with_mode(MemoryMode::Local)
                .with_duration(400.0),
            ScheduledArrival::new(150.0, spark::by_name("pca").unwrap()),
        ];

        // Run 1: pca is unknown → remote-first capture under the
        // stressor.
        let mut policy = policy_with_beta(0.7);
        let mut obs = Observer::default();
        let report = run_stream_hooked(
            TestbedConfig::noiseless(),
            engine,
            &mut ScheduleStream::new(&schedule),
            &[],
            &mut policy,
            &mut ObservedRun::with_qos(&mut obs, engine.qos_p99_ms),
        );
        let pca = report.outcomes.iter().find(|o| o.name == "pca").unwrap();
        assert_eq!(pca.mode, MemoryMode::Remote, "unknown app goes remote");
        let added = absorb_signatures(&mut policy, &report, &mut obs);
        assert_eq!(added, 1);
        assert!(policy.knows("pca"));
        let stored = obs
            .adapt
            .captures()
            .iter()
            .find(|c| c.app == "pca" && c.skip.is_none())
            .expect("stored capture is audited");
        assert!(stored.co_runners >= 1, "captured amid a co-runner");
        assert!(stored.rows >= 1);

        // Clean re-run: pca is now known, so the β-slack rule decides.
        let mut obs2 = Observer::default();
        let _ = run_stream_hooked(
            TestbedConfig::noiseless(),
            engine,
            &mut ScheduleStream::new(&schedule),
            &[],
            &mut policy,
            &mut ObservedRun::with_qos(&mut obs2, engine.qos_p99_ms),
        );
        let captured_rec = obs2
            .audit
            .records()
            .iter()
            .find(|r| r.input.app == "pca")
            .expect("audited");
        assert!(matches!(
            captured_rec.input.rule,
            DecisionRule::BetaSlack { .. }
        ));

        // Same re-run with the offline isolated-remote signature.
        let (_, trace) = run_isolated(
            TestbedConfig::noiseless(),
            engine,
            spark::by_name("pca").unwrap(),
            MemoryMode::Remote,
        );
        let mut offline_policy = policy_with_beta(0.7);
        offline_policy.store_signature(AppSignature::new(
            "pca",
            trace.iter().map(|s| *s.vec()).collect(),
        ));
        let mut obs3 = Observer::default();
        let _ = run_stream_hooked(
            TestbedConfig::noiseless(),
            engine,
            &mut ScheduleStream::new(&schedule),
            &[],
            &mut offline_policy,
            &mut ObservedRun::with_qos(&mut obs3, engine.qos_p99_ms),
        );
        let offline_rec = obs3
            .audit
            .records()
            .iter()
            .find(|r| r.input.app == "pca")
            .expect("audited");
        assert!(matches!(
            offline_rec.input.rule,
            DecisionRule::BetaSlack { .. }
        ));
        assert_eq!(
            captured_rec.input.chosen, offline_rec.input.chosen,
            "captured and offline signatures must agree on placement"
        );
    }

    #[test]
    fn co_runner_counts_cover_overlapping_residencies() {
        // gmm and pca arrive 10 s apart and overlap; each sees one
        // co-runner.
        let report = remote_run(&["gmm", "pca"]);
        let (_, records) = capture_unknown_signatures(&report, |_| false);
        assert_eq!(records.len(), 2);
        for r in &records {
            assert_eq!(r.co_runners, 1, "app {} overlaps its peer", r.app);
        }
    }
}
