//! Pins the event-heap engine's determinism contract: every committed
//! corpus case must match its manifest digest, every seeded scenario
//! must produce byte-identical RunReports, audit trails, and JSONL
//! exports across worker counts 1/2/8 and across repeated runs, and the
//! SIMD kernel layer must be bitwise interchangeable with its forced-
//! scalar fallback (the lane-order accumulation contract, DESIGN.md
//! §14). This is the harness that once pinned the event engine against
//! the retired 1 Hz step loop; the step loop is gone, so the oracle is
//! now the corpus manifest plus self-consistency.

use std::path::Path;
use std::sync::OnceLock;

use adrias::nn::set_force_scalar;
use adrias::obs::export::{to_jsonl_decisions, to_jsonl_events, to_jsonl_metrics, to_jsonl_spans};
use adrias::obs::Observer;
use adrias::orchestrator::engine::{run_stream_hooked, ScheduleStream};
use adrias::orchestrator::{AdriasPolicy, ObservedRun};
use adrias::scenarios::fuzz::replay_corpus;
use adrias::scenarios::schedule::PlacementStyle;
use adrias::scenarios::{
    build_schedule, load_corpus, run_case, train_stack, FuzzConfig, ScenarioSpec, StackOptions,
    TrainedStack,
};
use adrias::sim::TestbedConfig;
use adrias::workloads::WorkloadCatalog;

fn trained() -> &'static (WorkloadCatalog, TrainedStack) {
    static STACK: OnceLock<(WorkloadCatalog, TrainedStack)> = OnceLock::new();
    STACK.get_or_init(|| {
        let catalog = WorkloadCatalog::paper();
        let stack = train_stack(&catalog, &StackOptions::quick());
        (catalog, stack)
    })
}

/// Builds the Adrias policy with the given inference worker count,
/// without retraining.
fn policy(stack: &TrainedStack, workers: usize) -> AdriasPolicy {
    let mut system_model = stack.system_model.clone();
    let mut be_model = stack.be_model.clone();
    let mut lc_model = stack.lc_model.clone();
    system_model.set_workers(workers);
    be_model.set_workers(workers);
    lc_model.set_workers(workers);
    AdriasPolicy::new(
        system_model,
        be_model,
        lc_model,
        stack.signatures.clone(),
        0.8,
        5.0,
    )
}

/// One full observed scenario run rendered to every byte stream the
/// determinism contract covers: the exact RunReport debug form, the
/// decision audit trail, the event log, the metrics export, and the
/// lifecycle spans.
fn run_fingerprint(
    stack: &TrainedStack,
    catalog: &WorkloadCatalog,
    seed: u64,
    workers: usize,
) -> [String; 5] {
    let spec = ScenarioSpec::new(5.0, 30.0, 700.0, seed);
    let schedule = build_schedule(&spec, catalog, PlacementStyle::PolicyDecided);
    let engine = spec.engine_config(Some(5.0));
    let mut policy = policy(stack, workers);
    let mut obs = Observer::default();
    let report = run_stream_hooked(
        TestbedConfig::noiseless(),
        engine,
        &mut ScheduleStream::new(&schedule),
        &[],
        &mut policy,
        &mut ObservedRun::with_qos(&mut obs, engine.qos_p99_ms),
    );
    [
        format!("{report:?}"),
        to_jsonl_decisions(&obs),
        to_jsonl_events(&obs),
        to_jsonl_metrics(&obs),
        to_jsonl_spans(&obs),
    ]
}

/// The committed regression corpus replays with digests identical to
/// the manifest that gates CI — the engine has not drifted from the
/// corpus ground truth.
#[test]
fn committed_corpus_cases_match_their_manifest_digests() {
    let (_, stack) = trained();
    let cfg = FuzzConfig::default();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let entries = load_corpus(&dir).expect("committed corpus loads");
    assert_eq!(entries.len(), 20, "corpus size changed; update this test");
    for entry in &entries {
        let outcome = run_case(stack, &cfg, &entry.case);
        assert_eq!(
            outcome.digest, entry.digest,
            "corpus case {} drifted from its manifest digest",
            entry.id
        );
    }
}

/// The replay harness itself (the CI gate) is worker-count invariant
/// and green against the committed manifest.
#[test]
fn corpus_replay_is_green_and_worker_invariant() {
    let (_, stack) = trained();
    let cfg = FuzzConfig::default();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let entries = load_corpus(&dir).expect("committed corpus loads");
    let golden = replay_corpus(stack, &cfg, &entries, 1);
    assert!(
        golden.ok(),
        "corpus replay diverged at 1 worker: {:?}",
        golden.digest_mismatches()
    );
    for workers in [2usize, 8] {
        let replay = replay_corpus(stack, &cfg, &entries, workers);
        assert!(replay.ok(), "replay diverged at {workers} workers");
        assert_eq!(
            golden.verdict.suite_digest, replay.verdict.suite_digest,
            "suite digest drifted at {workers} workers"
        );
    }
}

/// Seeds {0,1,2} × workers {1,2,8}: the RunReport and all four JSONL
/// exports are byte-identical across worker counts, with the 1-worker
/// run as the golden reference, and a repeated 1-worker run reproduces
/// it exactly.
#[test]
fn engine_runs_are_byte_identical_across_workers_and_repeats() {
    let (catalog, stack) = trained();
    for seed in [0u64, 1, 2] {
        let golden = run_fingerprint(stack, catalog, seed, 1);
        assert!(
            golden[0].contains("outcomes"),
            "run produced no outcomes for seed {seed}"
        );
        assert!(
            !golden[1].is_empty() && !golden[2].is_empty() && !golden[3].is_empty(),
            "observed run exported nothing for seed {seed}"
        );
        assert!(
            golden[4].lines().count() > 1,
            "run closed no lifecycle spans for seed {seed}"
        );
        for workers in [1usize, 2, 8] {
            let other = run_fingerprint(stack, catalog, seed, workers);
            for (i, stream) in ["report", "decisions", "events", "metrics", "spans"]
                .iter()
                .enumerate()
            {
                assert_eq!(
                    golden[i], other[i],
                    "engine diverged on {stream} at seed {seed}, {workers} workers"
                );
            }
        }
    }
}

/// The forced-scalar kernel path reproduces the native (SIMD where
/// available) byte streams exactly, across worker counts — the
/// lane-order accumulation contract holds end to end, from GEMM
/// micro-kernels through LSTM gates to the exported JSONL. The toggle
/// is process-global; because both paths are bit-identical, tests
/// running concurrently under either setting still agree.
#[test]
fn forced_scalar_kernels_reproduce_native_runs_byte_for_byte() {
    let (catalog, stack) = trained();
    let seed = 1u64;
    let native = run_fingerprint(stack, catalog, seed, 1);
    set_force_scalar(true);
    let scalar_runs: Vec<[String; 5]> = [1usize, 2, 8]
        .iter()
        .map(|&w| run_fingerprint(stack, catalog, seed, w))
        .collect();
    set_force_scalar(false);
    for (scalar, workers) in scalar_runs.iter().zip([1usize, 2, 8]) {
        for (i, stream) in ["report", "decisions", "events", "metrics", "spans"]
            .iter()
            .enumerate()
        {
            assert_eq!(
                native[i], scalar[i],
                "forced-scalar diverged from native on {stream} at {workers} workers"
            );
        }
    }
}

/// Faulted runs (the fuzzer's engine path) are deterministic too: a
/// link collapse mid-scenario lands on the same tick with the same
/// bytes on every run.
#[test]
fn faulted_runs_are_deterministic() {
    use adrias::orchestrator::engine::FaultEvent;
    use adrias::sim::LinkConfig;
    let (catalog, stack) = trained();
    let spec = ScenarioSpec::new(5.0, 25.0, 700.0, 3);
    let schedule = build_schedule(&spec, catalog, PlacementStyle::PolicyDecided);
    let engine = spec.engine_config(Some(5.0));
    let faults = [
        FaultEvent {
            at_s: 120.0,
            link: LinkConfig {
                effective_cap_gbps: 0.5,
                remote_latency_ns: 2400.0,
                ..LinkConfig::paper()
            },
        },
        FaultEvent {
            at_s: 300.5,
            link: LinkConfig::paper(),
        },
    ];
    let run = || {
        let mut policy = policy(stack, 1);
        let mut obs = Observer::default();
        let report = run_stream_hooked(
            TestbedConfig::noiseless(),
            engine,
            &mut ScheduleStream::new(&schedule),
            &faults,
            &mut policy,
            &mut ObservedRun::with_qos(&mut obs, engine.qos_p99_ms),
        );
        (format!("{report:?}"), to_jsonl_events(&obs))
    };
    assert_eq!(run(), run());
}
