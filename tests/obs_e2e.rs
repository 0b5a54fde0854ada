//! Workspace-level observability contract: every placement is audited
//! exactly once with its decision margin, and the structured exports
//! are byte-identical across same-seed runs and training worker counts.

use adrias::core_util::rng::{Rng, SeedableRng, Xoshiro256pp};
use adrias::obs::{export, DecisionRule, ObsConfig, Observer};
use adrias::orchestrator::engine::{
    run_stream_hooked, EngineConfig, ScheduleStream, ScheduledArrival,
};
use adrias::orchestrator::{AdriasPolicy, ObservedRun};
use adrias::predictor::dataset::{PerfRecord, HISTORY_S};
use adrias::predictor::{
    PerfDataset, PerfModel, PerfModelConfig, SystemStateDataset, SystemStateModel,
    SystemStateModelConfig,
};
use adrias::sim::TestbedConfig;
use adrias::telemetry::{Metric, MetricSample, MetricVec};
use adrias::workloads::{keyvalue, spark, AppSignature, MemoryMode, WorkloadProfile};

fn metric_row(x: f32) -> MetricVec {
    let mut v = MetricVec::zero();
    v.set(Metric::LlcLoads, 1e8 * (1.0 + x));
    v.set(Metric::MemLoads, 4e7 * (1.0 + x));
    v.set(Metric::LinkLatency, 350.0 + 100.0 * x);
    v
}

/// Trains a minimal Adrias stack (as in the policy unit tests) with an
/// explicit data-parallel worker count so worker invariance can be
/// checked end to end: training → policy → engine → exports.
fn policy_with_workers(workers: usize) -> AdriasPolicy {
    let mut rng = Xoshiro256pp::seed_from_u64(0);

    let trace: Vec<MetricSample> = (0..400)
        .map(|t| MetricSample::new(t as f64, metric_row(((t as f32) * 0.02).sin() * 0.2)))
        .collect();
    let sys_ds = SystemStateDataset::from_traces(&[trace], 10);
    let mut system_model = SystemStateModel::new(SystemStateModelConfig {
        epochs: 4,
        hidden: 6,
        block_width: 8,
        workers,
        ..SystemStateModelConfig::tiny()
    });
    system_model.train(&sys_ds);

    // Remote is 1.05× for gmm, 2× for nweight; redis p99 doubles remote.
    let be_apps: Vec<(WorkloadProfile, f32)> = vec![
        (spark::by_name("gmm").unwrap(), 1.05),
        (spark::by_name("nweight").unwrap(), 2.0),
    ];
    let mut be_records = Vec::new();
    for _ in 0..60 {
        let (app, penalty) = &be_apps[rng.gen_range(0..be_apps.len())];
        let x: f32 = rng.gen_range(-0.2..0.2);
        for mode in MemoryMode::BOTH {
            let perf = app.base_runtime_s()
                * if mode == MemoryMode::Remote {
                    *penalty
                } else {
                    1.0
                }
                * (1.0 + 0.1 * (x + 0.2));
            be_records.push(PerfRecord {
                app: app.name().to_owned(),
                mode,
                history: vec![metric_row(x); HISTORY_S],
                future_120: metric_row(x),
                future_exec: metric_row(x),
                perf,
            });
        }
    }
    let mut lc_records = Vec::new();
    for _ in 0..40 {
        let x: f32 = rng.gen_range(-0.2..0.2);
        for mode in MemoryMode::BOTH {
            lc_records.push(PerfRecord {
                app: "redis".to_owned(),
                mode,
                history: vec![metric_row(x); HISTORY_S],
                future_120: metric_row(x),
                future_exec: metric_row(x),
                perf: (if mode == MemoryMode::Remote { 2.4 } else { 1.2 })
                    * (1.0 + 0.1 * (x + 0.2)),
            });
        }
    }
    let signatures: Vec<AppSignature> = vec![
        AppSignature::new("gmm", vec![metric_row(0.1); 20]),
        AppSignature::new("nweight", vec![metric_row(0.9); 20]),
        AppSignature::new("redis", vec![metric_row(0.5); 20]),
    ];
    let be_ds = PerfDataset::new(be_records, &signatures);
    let lc_ds = PerfDataset::new(lc_records, &signatures);
    let cfg = PerfModelConfig {
        epochs: 40,
        hidden: 8,
        block_width: 12,
        learning_rate: 4e-3,
        dropout: 0.0,
        workers,
        ..PerfModelConfig::tiny()
    };
    let be_hats: Vec<Option<MetricVec>> =
        be_ds.records().iter().map(|r| Some(r.future_120)).collect();
    let lc_hats: Vec<Option<MetricVec>> =
        lc_ds.records().iter().map(|r| Some(r.future_120)).collect();
    let mut be_model = PerfModel::new(cfg);
    be_model.train(&be_ds, &be_hats);
    let mut lc_model = PerfModel::new(cfg);
    lc_model.train(&lc_ds, &lc_hats);

    AdriasPolicy::new(system_model, be_model, lc_model, signatures, 0.7, 2.0)
}

fn schedule() -> Vec<ScheduledArrival> {
    vec![
        ScheduledArrival::new(0.0, spark::by_name("gmm").unwrap()),
        ScheduledArrival::new(130.0, spark::by_name("nweight").unwrap()),
        ScheduledArrival::new(150.0, spark::by_name("pca").unwrap()),
        ScheduledArrival::new(170.0, keyvalue::redis()),
    ]
}

fn engine() -> EngineConfig {
    EngineConfig {
        lc_latency_samples: 500,
        qos_p99_ms: Some(2.0),
        ..EngineConfig::default()
    }
}

/// Runs the schedule under a freshly trained policy and returns the
/// five export documents.
fn exports_with_workers(workers: usize) -> (Observer, [String; 5]) {
    let mut policy = policy_with_workers(workers);
    let mut obs = Observer::new(ObsConfig::default());
    let _ = run_stream_hooked(
        TestbedConfig::noiseless(),
        engine(),
        &mut ScheduleStream::new(&schedule()),
        &[],
        &mut policy,
        &mut ObservedRun::with_qos(&mut obs, engine().qos_p99_ms),
    );
    let docs = [
        export::to_jsonl_events(&obs),
        export::to_jsonl_decisions(&obs),
        export::to_jsonl_metrics(&obs),
        export::to_chrome_trace(&obs),
        export::to_jsonl_spans(&obs),
    ];
    (obs, docs)
}

#[test]
fn every_decision_is_audited_once_with_margin() {
    let (obs, docs) = exports_with_workers(1);
    let arrivals = schedule().len();
    assert_eq!(obs.audit.len(), arrivals, "one audit record per arrival");

    let mut ids: Vec<u64> = obs
        .audit
        .records()
        .iter()
        .map(|r| r.input.deployment_id)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), arrivals, "deployment ids must be unique");

    let mut seqs: Vec<u64> = obs.audit.records().iter().map(|r| r.seq).collect();
    seqs.dedup();
    assert_eq!(seqs, (0..arrivals as u64).collect::<Vec<_>>());

    for r in obs.audit.records() {
        match r.input.rule {
            DecisionRule::BetaSlack { .. } | DecisionRule::QosThreshold { .. } => {
                assert!(
                    r.margin.is_some(),
                    "predictive rule must carry a margin: {r:?}"
                );
                assert!(r.input.pred_local.is_some() && r.input.pred_remote.is_some());
            }
            _ => assert!(r.margin.is_none(), "non-predictive rule has no margin"),
        }
    }
    // The unknown app (pca) must be captured remote-first.
    let pca: Vec<_> = obs
        .audit
        .records()
        .iter()
        .filter(|r| r.input.app == "pca")
        .collect();
    assert_eq!(pca.len(), 1);
    assert_eq!(pca[0].input.rule, DecisionRule::UnknownRemoteFirst);
    assert_eq!(pca[0].input.chosen, MemoryMode::Remote);

    // The exports themselves pass the in-tree validators.
    adrias::obs::validate_jsonl_events(&docs[0]).expect("events");
    adrias::obs::validate_jsonl_decisions(&docs[1]).expect("decisions");
    adrias::obs::validate_jsonl_metrics(&docs[2]).expect("metrics");
    adrias::obs::validate_chrome_trace(&docs[3]).expect("trace");
    adrias::obs::validate_jsonl_spans(&docs[4]).expect("spans");

    // One closed lifecycle span per arrival, and every audited
    // deployment id reappears in its span tree.
    assert_eq!(obs.spans.len(), arrivals, "one lifecycle span per arrival");
    for r in obs.audit.records() {
        assert!(
            obs.spans
                .records()
                .any(|s| s.deployment_id == r.input.deployment_id),
            "audited deployment {} has no lifecycle span",
            r.input.deployment_id
        );
    }
}

#[test]
fn same_seed_runs_and_worker_counts_export_identical_bytes() {
    let (_, base) = exports_with_workers(1);
    let (_, again) = exports_with_workers(1);
    assert_eq!(base, again, "same-seed reruns must be byte-identical");

    for workers in [2usize, 8] {
        let (_, docs) = exports_with_workers(workers);
        assert_eq!(base, docs, "exports diverged at {workers} training workers");
    }
}
