//! Micro-benchmarks for the hot paths: simulator stepping, LSTM
//! training/inference, the batched predictor engine and the full Adrias
//! scheduling decision. Runs on the in-tree `adrias_core::bench` harness
//! (median/p95 wall-clock).
//!
//! Environment knobs on top of the harness's own:
//!
//! * `ADRIAS_BENCH_FILTER` — substring filter on section names
//!   (`testbed_step`, `lstm`, `gemm`, `nn_forward`,
//!   `train_step_workers`, `adrias_decision`, `decision_throughput`,
//!   `obs_intern`, `obs_overhead`, `span_overhead`,
//!   `residual_overhead`, `event_engine`); unmatched sections are
//!   skipped entirely, including their setup.
//!
//! The run always ends by writing `BENCH_nn.json` (the collected
//! medians plus the derived batched-inference speedups) to the
//! workspace root.

use adrias_core::bench::{black_box, Harness};
use adrias_core::rng::{SeedableRng, Xoshiro256pp};

use adrias_nn::{accumulate_minibatch, GradModel, Layer, Linear, Lstm, MseLoss, Tensor};
use adrias_sim::{Testbed, TestbedConfig};
use adrias_telemetry::{Metric, MetricVec};
use adrias_workloads::{spark, MemoryMode, WorkloadCatalog};

fn bench_sim_step(h: &mut Harness) {
    h.bench_function("testbed_step_20_apps", |b| {
        b.iter_batched(
            || {
                let mut tb = Testbed::new(TestbedConfig::paper(), 1);
                let catalog = WorkloadCatalog::paper();
                let mut rng = Xoshiro256pp::seed_from_u64(5);
                for i in 0..20 {
                    let w = catalog.pick(&mut rng).clone();
                    let mode = if i % 2 == 0 {
                        MemoryMode::Local
                    } else {
                        MemoryMode::Remote
                    };
                    tb.deploy_for(w, mode, 100_000.0);
                }
                tb
            },
            |mut tb| {
                for _ in 0..100 {
                    black_box(tb.step());
                }
            },
        )
    });
}

fn bench_lstm(h: &mut Harness) {
    let mut rng = Xoshiro256pp::seed_from_u64(2);
    let mut lstm = Lstm::new(7, 32, &mut rng);
    let seq: Vec<Tensor> = (0..24)
        .map(|_| adrias_nn::init::uniform(32, 7, 1.0, &mut rng))
        .collect();
    h.bench_function("lstm_forward_b32_t24_h32", |b| {
        b.iter(|| black_box(lstm.forward_last(&seq)))
    });
    // The same forward with the SIMD kernel layer forced onto its
    // scalar fallback — the bit-identical "before" column behind the
    // derived `simd_lstm_speedup_x` metric.
    adrias_nn::set_force_scalar(true);
    h.bench_function("lstm_forward_scalar_b32_t24_h32", |b| {
        b.iter(|| black_box(lstm.forward_last(&seq)))
    });
    adrias_nn::set_force_scalar(false);
    h.bench_function("lstm_forward_backward_b32_t24_h32", |b| {
        b.iter(|| {
            let out = lstm.forward_last(&seq);
            lstm.zero_grad();
            black_box(lstm.backward_last(&out));
        })
    });
}

/// The `matmul_transb` micro-kernel (the dot-product GEMM behind every
/// `Linear::forward_into` on the decision fast lane), native vs
/// forced-scalar — the A/B behind `simd_gemm_speedup_x`. The two paths
/// produce bit-identical outputs (the lane-order accumulation
/// contract), so the ratio is pure kernel throughput.
fn bench_gemm(h: &mut Harness) {
    let mut rng = Xoshiro256pp::seed_from_u64(13);
    let a = adrias_nn::init::uniform(64, 128, 1.0, &mut rng);
    let b_t = adrias_nn::init::uniform(64, 128, 1.0, &mut rng);
    let mut out = Tensor::zeros(64, 64);
    h.bench_function("gemm_transb_64x128x64", |b| {
        b.iter(|| {
            a.matmul_transb_into(&b_t, &mut out);
            black_box(out.get(0, 0));
        })
    });
    adrias_nn::set_force_scalar(true);
    h.bench_function("gemm_transb_scalar_64x128x64", |b| {
        b.iter(|| {
            a.matmul_transb_into(&b_t, &mut out);
            black_box(out.get(0, 0));
        })
    });
    adrias_nn::set_force_scalar(false);
}

/// The full Adrias scheduling decision through both lanes.
///
/// * `adrias_decision` — the slow lane (`set_fast_path(false)`): the
///   pre-PR baseline that re-runs the forecast and allocates fresh
///   buffers on every call. Kept honest so the derived speedup compares
///   against real work, not a strawman.
/// * `adrias_decision_fastpath` — the fast lane with a fresh
///   [`adrias_telemetry::WindowStamp`] per call, i.e. every decision is
///   a forecast-cache **miss** (one scratch-based `Ŝ` forecast + one
///   batched perf pass, zero heap allocations).
/// * `adrias_decision_cached` — the fast lane with a constant stamp,
///   i.e. every decision after the first is a forecast-cache **hit**.
/// * `decision_throughput` — a stream of 64 decisions across four apps
///   where the stamp advances every 8 decisions, the engine's
///   steady-state mix of hits and misses.
fn bench_decision(h: &mut Harness) {
    use adrias_orchestrator::{DecisionContext, Policy};
    use adrias_scenarios::{train_stack, StackOptions};
    use adrias_telemetry::WindowStamp;

    let catalog = WorkloadCatalog::paper();
    let stack = train_stack(&catalog, &StackOptions::quick());
    let app = spark::by_name("lr").unwrap();
    let apps = ["lr", "gmm", "nweight", "sort"].map(|n| spark::by_name(n).unwrap());
    let history: Vec<MetricVec> = (0..120)
        .map(|t| {
            let mut v = MetricVec::zero();
            v.set(Metric::LlcLoads, 1e8 + t as f32 * 1e5);
            v.set(Metric::LinkLatency, 360.0);
            v
        })
        .collect();
    // A synthetic stamp source that cannot collide with a real watcher.
    let stamp = |version: u64| WindowStamp {
        source: u64::MAX,
        version,
    };
    let ctx = |stamp_v: Option<u64>, profile| DecisionContext {
        profile,
        history: Some(&history),
        qos_p99_ms: Some(5.0),
        stamp: stamp_v.map(stamp),
    };

    let mut slow = stack.policy(0.8, 5.0);
    slow.set_fast_path(false);
    h.bench_function("adrias_decision", |b| {
        b.iter(|| black_box(slow.decide(&ctx(None, &app))))
    });

    let mut fast = stack.policy(0.8, 5.0);
    let mut version = 0u64;
    h.bench_function("adrias_decision_fastpath", |b| {
        b.iter(|| {
            version += 1;
            black_box(fast.decide(&ctx(Some(version), &app)))
        })
    });

    let mut cached = stack.policy(0.8, 5.0);
    h.bench_function("adrias_decision_cached", |b| {
        b.iter(|| black_box(cached.decide(&ctx(Some(1), &app))))
    });

    let mut stream = stack.policy(0.8, 5.0);
    let mut base = 1u64 << 32;
    h.bench_function("decision_throughput_64", |b| {
        b.iter(|| {
            base += 64;
            for i in 0..64u64 {
                let v = base + i / 8;
                black_box(stream.decide(&ctx(Some(v), &apps[(i % 4) as usize])));
            }
        })
    });
}

/// The obs string-arena lookup against the owned-`String` path it
/// replaced on the per-decision audit/trace record.
fn bench_obs_intern(h: &mut Harness) {
    let names = [
        "gmm", "sort", "pca", "lr", "kmeans", "nweight", "als", "svd",
    ];
    for name in names {
        adrias_obs::intern(name); // steady state: every name already interned
    }
    h.bench_function("obs_intern_hit", |b| {
        b.iter(|| {
            for name in names {
                black_box(adrias_obs::intern(name));
            }
        })
    });
    h.bench_function("obs_name_to_owned", |b| {
        b.iter(|| {
            for name in names {
                black_box(name.to_owned());
            }
        })
    });
}

/// The seed engine's forward data path, kept as the benchmark baseline:
/// per-step `x @ W.T` projections that materialize the transposed weight
/// every step, with per-gate `columns()` slices — exactly what
/// `Lstm::forward_seq` did before the batched engine replaced it with
/// once-per-sequence transposes, reused `matmul_into` buffers and a
/// fused gate sweep.
fn seed_lstm_last(w_ih: &Tensor, w_hh: &Tensor, bias: &Tensor, seq: &[Tensor]) -> Tensor {
    let batch = seq[0].rows();
    let h = w_hh.cols();
    let mut h_prev = Tensor::zeros(batch, h);
    let mut c_prev = Tensor::zeros(batch, h);
    let sigmoid = |x: f32| 1.0 / (1.0 + (-x).exp());
    for x in seq {
        let z = {
            let zx = x.matmul(&w_ih.transpose());
            let zh = h_prev.matmul(&w_hh.transpose());
            (&zx + &zh).add_row_broadcast(bias)
        };
        let i = z.columns(0, h).map(sigmoid);
        let f = z.columns(h, 2 * h).map(sigmoid);
        let g = z.columns(2 * h, 3 * h).map(f32::tanh);
        let o = z.columns(3 * h, 4 * h).map(sigmoid);
        let c = &(&f * &c_prev) + &(&i * &g);
        let tanh_c = c.map(f32::tanh);
        h_prev = &o * &tanh_c;
        c_prev = c;
    }
    h_prev
}

/// Batched inference vs. the same work issued one sample at a time —
/// once through the new kernels (isolating the batch-amortized dispatch
/// and allocation overhead) and once through the seed engine's data path
/// (the end-to-end engine-vs-engine comparison). The derived
/// `batched_vs_seed_speedup_x` metric in `BENCH_nn.json` tracks the PR's
/// speedup claim.
fn bench_batched_forward(h: &mut Harness) {
    const BATCH: usize = 32;
    const SEQ: usize = 24;
    let mut rng = Xoshiro256pp::seed_from_u64(9);
    let mut lstm = Lstm::new(7, 32, &mut rng);
    let mut readout = Linear::new(32, 7, &mut rng);

    let mut lstm_params: Vec<Tensor> = Vec::new();
    lstm.visit_params(&mut |p, _| lstm_params.push(p.clone()));
    let (w_ih, w_hh, bias) = (
        lstm_params[0].clone(),
        lstm_params[1].clone(),
        lstm_params[2].clone(),
    );
    let (ro_w, ro_b) = (readout.weight().clone(), readout.bias().clone());

    let batched_seq: Vec<Tensor> = (0..SEQ)
        .map(|_| adrias_nn::init::uniform(BATCH, 7, 1.0, &mut rng))
        .collect();
    // The identical samples, pre-sliced into batch-1 sequences.
    let single_seqs: Vec<Vec<Tensor>> = (0..BATCH)
        .map(|r| batched_seq.iter().map(|x| x.rows_slice(r, r + 1)).collect())
        .collect();

    h.bench_function("nn_forward_batched_b32", |b| {
        b.iter(|| {
            let h_last = lstm.forward_last(&batched_seq);
            black_box(readout.forward(&h_last, false))
        })
    });
    h.bench_function("nn_forward_per_sample_b32", |b| {
        b.iter(|| {
            for seq in &single_seqs {
                let h_last = lstm.forward_last(seq);
                black_box(readout.forward(&h_last, false));
            }
        })
    });
    h.bench_function("nn_forward_per_sample_seed_engine_b32", |b| {
        b.iter(|| {
            for seq in &single_seqs {
                let h_last = seed_lstm_last(&w_ih, &w_hh, &bias, seq);
                black_box(h_last.matmul(&ro_w.transpose()).add_row_broadcast(&ro_b));
            }
        })
    });
}

/// A minimal [`GradModel`] for exercising the data-parallel trainer
/// without dragging in the full predictor stack.
#[derive(Clone)]
struct ToyNet {
    lin: Linear,
}

impl GradModel for ToyNet {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.lin.visit_params(f);
    }
}

/// One deterministic minibatch accumulation at 1 vs. N workers. On a
/// single-core runner the interesting number is the dispatch overhead;
/// the loss trace is bit-identical either way.
fn bench_worker_scaling(h: &mut Harness) {
    const IN: usize = 16;
    const OUT: usize = 4;
    let mut rng = Xoshiro256pp::seed_from_u64(21);
    let master = ToyNet {
        lin: Linear::new(IN, OUT, &mut rng),
    };
    let data = adrias_nn::init::uniform(256, IN, 1.0, &mut rng);
    let targets = adrias_nn::init::uniform(256, OUT, 1.0, &mut rng);
    let batch: Vec<usize> = (0..64).collect();
    let pass = |m: &mut ToyNet, _chunk: usize, idxs: &[usize]| -> f32 {
        let x = Tensor::from_fn(idxs.len(), IN, |r, c| data.get(idxs[r], c));
        let t = Tensor::from_fn(idxs.len(), OUT, |r, c| targets.get(idxs[r], c));
        let pred = m.lin.forward(&x, true);
        let mut loss = MseLoss::new();
        let l = loss.forward(&pred, &t);
        m.lin.backward(&loss.backward());
        l
    };
    for workers in [1usize, 2] {
        h.bench_function(&format!("train_step_workers_{workers}"), |b| {
            b.iter(|| {
                let mut m = master.clone();
                black_box(accumulate_minibatch(&mut m, &batch, 8, workers, &pass))
            })
        });
    }
}

/// The same arrival schedule replayed unobserved (the monomorphized
/// no-op observer) and with a full in-memory [`adrias_obs::Observer`]
/// attached but no exporter running. Uses the paper testbed config with
/// a dense 12-app schedule so the baseline step carries representative
/// contention work.
///
/// Three variants are timed:
///
/// * `plain` — the monomorphized no-op observer `()`;
/// * `traced` — audit trail + trace events only (per-decision and
///   per-completion work, no per-step metrics), the cost the "tracing
///   with no exporter stays ≤ 5%" claim is about;
/// * `observed` — the full [`adrias_obs::Observer`] including per-step
///   pressure/latency sketches.
///
/// Whole-run wall times on a shared machine drift by far more than the
/// overhead being measured, so on top of the absolute sections the
/// bench runs interleaved A/B/C rounds — each round times all variants
/// back-to-back and contributes one ratio per variant — and reports the
/// median ratios as the derived `obs_tracing_overhead_x` /
/// `obs_overhead_x` metrics. Pairing cancels the slow drift that
/// sequential sections cannot.
fn bench_obs_overhead(h: &mut Harness) -> (Option<f64>, Option<f64>) {
    use adrias_obs::{ObsConfig, Observer};
    use adrias_orchestrator::engine::{
        run_stream_hooked, EngineConfig, EngineObserver, ScheduleStream, ScheduledArrival,
    };
    use adrias_orchestrator::{ObservedRun, RoundRobinPolicy};
    use std::time::Instant;

    /// [`ObservedRun`] minus the per-step metrics hook: decisions,
    /// completions and the run span still record, `on_step` stays the
    /// default no-op.
    struct TracingOnly<'a>(ObservedRun<'a>);
    impl EngineObserver for TracingOnly<'_> {
        fn on_decision(
            &mut self,
            at_s: f64,
            id: adrias_sim::DeploymentId,
            profile: &adrias_workloads::WorkloadProfile,
            history: Option<&[MetricVec]>,
            decision: &adrias_orchestrator::policy::ExplainedDecision,
            policy_name: &str,
        ) {
            self.0
                .on_decision(at_s, id, profile, history, decision, policy_name);
        }
        fn on_complete(
            &mut self,
            id: adrias_sim::DeploymentId,
            outcome: &adrias_orchestrator::AppOutcome,
        ) {
            self.0.on_complete(id, outcome);
        }
        fn on_run_end(&mut self, report: &adrias_orchestrator::RunReport, last_arrival_s: f64) {
            self.0.on_run_end(report, last_arrival_s);
        }
    }

    // A sustained dense co-location mix (the paper's operating point):
    // 20 Spark apps arriving over 40 s, each resident for a fixed 600 s,
    // so the testbed carries ~20 apps for most of the run and the
    // baseline step does representative contention work.
    let apps = [
        "gmm", "sort", "pca", "lr", "kmeans", "nweight", "als", "svd", "rf", "linear", "bayes",
        "terasort", "gmm", "sort", "pca", "lr", "kmeans", "nweight", "als", "svd",
    ];
    let arrivals: Vec<ScheduledArrival> = apps
        .iter()
        .enumerate()
        .map(|(i, name)| {
            ScheduledArrival::new(i as f64 * 2.0, spark::by_name(name).unwrap())
                .with_duration(600.0)
        })
        .collect();
    let engine = || EngineConfig {
        lc_latency_samples: 100,
        ..EngineConfig::default()
    };
    let run_plain = || {
        let mut policy = RoundRobinPolicy::new();
        black_box(run_stream_hooked(
            TestbedConfig::paper(),
            engine(),
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut policy,
            &mut (),
        ));
    };
    let run_traced = || {
        let mut policy = RoundRobinPolicy::new();
        let mut obs = Observer::new(ObsConfig::default());
        let mut traced = TracingOnly(ObservedRun::with_qos(&mut obs, None));
        black_box(run_stream_hooked(
            TestbedConfig::paper(),
            engine(),
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut policy,
            &mut traced,
        ));
    };
    let run_observed = || {
        let mut policy = RoundRobinPolicy::new();
        let mut obs = Observer::new(ObsConfig::default());
        black_box(run_stream_hooked(
            TestbedConfig::paper(),
            engine(),
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut policy,
            &mut ObservedRun::with_qos(&mut obs, None),
        ));
    };

    h.bench_function("engine_run_plain", |b| b.iter(run_plain));
    h.bench_function("engine_run_traced_no_export", |b| b.iter(run_traced));
    h.bench_function("engine_run_observed_no_export", |b| b.iter(run_observed));

    let pairs: usize = std::env::var("ADRIAS_BENCH_PAIRS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    const RUNS_PER_LEG: usize = 5;
    let time_leg = |f: &dyn Fn()| {
        let t = Instant::now();
        for _ in 0..RUNS_PER_LEG {
            f();
        }
        t.elapsed().as_secs_f64()
    };
    for _ in 0..3 {
        time_leg(&run_plain);
        time_leg(&run_traced);
        time_leg(&run_observed);
    }
    let mut traced_ratios = Vec::with_capacity(pairs);
    let mut observed_ratios = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        let traced = time_leg(&run_traced);
        let observed = time_leg(&run_observed);
        let plain = time_leg(&run_plain);
        traced_ratios.push(traced / plain);
        observed_ratios.push(observed / plain);
    }
    let median = |r: &mut Vec<f64>| {
        r.sort_by(f64::total_cmp);
        r[r.len() / 2]
    };
    let traced = median(&mut traced_ratios);
    let observed = median(&mut observed_ratios);
    println!("  tracing-only overhead, median of {pairs} interleaved rounds: {traced:.3}x");
    println!("  full-metrics overhead, median of {pairs} interleaved rounds: {observed:.3}x");
    (Some(traced), Some(observed))
}

/// Lifecycle spans + quantile sketches on vs off, over the same dense
/// observed run. Both legs carry the full [`adrias_obs::Observer`]
/// (audit, trace, per-step sketches, flight recorder); the only
/// difference is `ObsConfig::record_spans`, which gates span open/close
/// bookkeeping and the queue-wait / slowdown sketch observes.
///
/// Like [`bench_obs_overhead`], the derived `span_overhead_x` metric is
/// the median on/off ratio over interleaved A/B rounds so machine drift
/// cancels. CI gates it at ≤ 1.15×.
fn bench_span_overhead(h: &mut Harness) -> Option<f64> {
    use adrias_obs::{ObsConfig, Observer};
    use adrias_orchestrator::engine::{
        run_stream_hooked, EngineConfig, ScheduleStream, ScheduledArrival,
    };
    use adrias_orchestrator::{ObservedRun, RoundRobinPolicy};
    use std::time::Instant;

    // The same sustained dense co-location mix as `bench_obs_overhead`.
    let apps = [
        "gmm", "sort", "pca", "lr", "kmeans", "nweight", "als", "svd", "rf", "linear", "bayes",
        "terasort", "gmm", "sort", "pca", "lr", "kmeans", "nweight", "als", "svd",
    ];
    let arrivals: Vec<ScheduledArrival> = apps
        .iter()
        .enumerate()
        .map(|(i, name)| {
            ScheduledArrival::new(i as f64 * 2.0, spark::by_name(name).unwrap())
                .with_duration(600.0)
        })
        .collect();
    let engine = || EngineConfig {
        lc_latency_samples: 100,
        ..EngineConfig::default()
    };
    let run_with = |record_spans: bool| {
        let mut policy = RoundRobinPolicy::new();
        let mut obs = Observer::new(ObsConfig {
            record_spans,
            ..ObsConfig::default()
        });
        black_box(run_stream_hooked(
            TestbedConfig::paper(),
            engine(),
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut policy,
            &mut ObservedRun::with_qos(&mut obs, None),
        ));
    };
    let run_spans_on = || run_with(true);
    let run_spans_off = || run_with(false);

    h.bench_function("engine_run_spans_on", |b| b.iter(run_spans_on));
    h.bench_function("engine_run_spans_off", |b| b.iter(run_spans_off));

    let pairs: usize = std::env::var("ADRIAS_BENCH_PAIRS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    const RUNS_PER_LEG: usize = 5;
    let time_leg = |f: &dyn Fn()| {
        let t = Instant::now();
        for _ in 0..RUNS_PER_LEG {
            f();
        }
        t.elapsed().as_secs_f64()
    };
    for _ in 0..3 {
        time_leg(&run_spans_on);
        time_leg(&run_spans_off);
    }
    let mut ratios = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        let on = time_leg(&run_spans_on);
        let off = time_leg(&run_spans_off);
        ratios.push(on / off);
    }
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    println!("  span+sketch overhead, median of {pairs} interleaved rounds: {median:.3}x");
    Some(median)
}

/// The residual tracker riding along a dense paper-config run vs the
/// same run with plain observability. Both legs use the trained Adrias
/// policy (so decisions carry the predictions the tracker joins on) and
/// the tracked leg pays the full online-adaptation read path: pending
/// joins at decision and completion, the end-of-run system-forecast
/// scoring pass, and the flush into the registry.
///
/// Like [`bench_obs_overhead`], the derived `online_residual_overhead_x`
/// metric is the median ratio over interleaved A/B rounds, which cancels
/// machine drift that sequential sections cannot.
fn bench_residual_overhead(h: &mut Harness) -> Option<f64> {
    use adrias_obs::{ObsConfig, Observer};
    use adrias_orchestrator::engine::{
        run_stream_hooked, EngineConfig, ScheduleStream, ScheduledArrival,
    };
    use adrias_orchestrator::{ObservedRun, ResidualConfig, ResidualTracker};
    use adrias_scenarios::{train_stack, StackOptions};
    use std::cell::RefCell;
    use std::time::Instant;

    let catalog = WorkloadCatalog::paper();
    let stack = train_stack(&catalog, &StackOptions::quick());
    // The same sustained dense co-location mix as `bench_obs_overhead`.
    let apps = [
        "gmm", "sort", "pca", "lr", "kmeans", "nweight", "als", "svd", "rf", "linear", "bayes",
        "terasort", "gmm", "sort", "pca", "lr", "kmeans", "nweight", "als", "svd",
    ];
    let arrivals: Vec<ScheduledArrival> = apps
        .iter()
        .enumerate()
        .map(|(i, name)| {
            ScheduledArrival::new(i as f64 * 2.0, spark::by_name(name).unwrap())
                .with_duration(600.0)
        })
        .collect();
    let engine = || EngineConfig {
        lc_latency_samples: 100,
        ..EngineConfig::default()
    };
    let scorer = RefCell::new(stack.system_model.clone());
    let run_observed = || {
        let mut policy = stack.policy(0.8, 5.0);
        let mut obs = Observer::new(ObsConfig::default());
        let mut hooks = ObservedRun::with_qos(&mut obs, None);
        black_box(run_stream_hooked(
            TestbedConfig::paper(),
            engine(),
            &mut ScheduleStream::new(&arrivals),
            &[],
            &mut policy,
            &mut hooks,
        ));
    };
    let run_tracked = || {
        let mut policy = stack.policy(0.8, 5.0);
        let mut obs = Observer::new(ObsConfig::default());
        let mut tracker = ResidualTracker::new(ResidualConfig::default());
        let report = {
            let mut hooks = ObservedRun::with_qos(&mut obs, None).with_tracker(&mut tracker);
            run_stream_hooked(
                TestbedConfig::paper(),
                engine(),
                &mut ScheduleStream::new(&arrivals),
                &[],
                &mut policy,
                &mut hooks,
            )
        };
        tracker.score_system_forecasts(&report, &mut scorer.borrow_mut());
        black_box(tracker.flush(&mut obs));
    };

    h.bench_function("engine_run_adrias_observed", |b| b.iter(run_observed));
    h.bench_function("engine_run_adrias_tracked", |b| b.iter(run_tracked));

    let pairs: usize = std::env::var("ADRIAS_BENCH_PAIRS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    const RUNS_PER_LEG: usize = 5;
    let time_leg = |f: &dyn Fn()| {
        let t = Instant::now();
        for _ in 0..RUNS_PER_LEG {
            f();
        }
        t.elapsed().as_secs_f64()
    };
    for _ in 0..3 {
        time_leg(&run_observed);
        time_leg(&run_tracked);
    }
    let mut ratios = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        let tracked = time_leg(&run_tracked);
        let observed = time_leg(&run_observed);
        ratios.push(tracked / observed);
    }
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    println!("  residual-tracking overhead, median of {pairs} interleaved rounds: {median:.3}x");
    Some(median)
}

/// End-to-end event-engine throughput: a high-rate Poisson stream of
/// short best-effort jobs through the engine with the full in-memory
/// observer attached — arrival generation, heap scheduling, the policy
/// decision, sim stepping, completion accounting and obs recording are
/// all on the clock. Two legs over the *same* materialized arrival
/// sequence:
///
/// * `schedule` — the event heap replaying the pre-built schedule;
/// * `streamed` — the event heap pulling straight from the generator
///   with O(1) arrivals in memory, the path the million-arrival example
///   uses.
///
/// The derived `decisions_per_sec` metric (streamed leg, median of 5)
/// is the gate the ISSUE pins: CI fails if it falls below 1e5/s.
fn bench_event_engine(h: &mut Harness) -> Vec<(&'static str, f64)> {
    use adrias_obs::{ObsConfig, Observer};
    use adrias_orchestrator::engine::{
        run_stream_hooked, EngineConfig, GeneratedStream, ScheduleStream, ScheduledArrival,
    };
    use adrias_orchestrator::{ObservedRun, RoundRobinPolicy};
    use adrias_workloads::{ArrivalSource, PoissonSource};
    use std::time::Instant;

    const RATE_PER_S: f64 = 400.0;
    const HORIZON_S: f64 = 250.0;
    const SEED: u64 = 41;

    let app = spark::by_name("lr").unwrap();
    let engine = || EngineConfig {
        lc_latency_samples: 100,
        ..EngineConfig::default()
    };
    let make_source = || PoissonSource::new(RATE_PER_S, HORIZON_S, SEED);
    let make_arrival = |t: f64| ScheduledArrival::new(t, app.clone()).with_duration(1.0);

    // The identical arrival sequence, pre-materialized for the two
    // schedule-driven legs.
    let schedule: Vec<ScheduledArrival> = {
        let mut src = make_source();
        let mut out = Vec::new();
        while let Some(t) = src.next_time() {
            out.push(make_arrival(t));
        }
        out
    };
    let n = schedule.len();
    println!("  event-engine workload: {n} Poisson arrivals over {HORIZON_S} s");

    let schedule_leg = || -> f64 {
        let mut policy = RoundRobinPolicy::new();
        let mut obs = Observer::new(ObsConfig::default());
        let mut hooks = ObservedRun::with_qos(&mut obs, None);
        let t = Instant::now();
        let report = run_stream_hooked(
            TestbedConfig::paper(),
            engine(),
            &mut ScheduleStream::new(&schedule),
            &[],
            &mut policy,
            &mut hooks,
        );
        let elapsed = t.elapsed().as_secs_f64();
        assert_eq!(report.unfinished, 0, "arrivals left behind in bench run");
        black_box(report);
        n as f64 / elapsed
    };
    let streamed_leg = || -> f64 {
        let mut stream = GeneratedStream::new(make_source(), |_, t| make_arrival(t));
        let mut policy = RoundRobinPolicy::new();
        let mut obs = Observer::new(ObsConfig::default());
        let mut hooks = ObservedRun::with_qos(&mut obs, None);
        let t = Instant::now();
        let report = run_stream_hooked(
            TestbedConfig::paper(),
            engine(),
            &mut stream,
            &[],
            &mut policy,
            &mut hooks,
        );
        let elapsed = t.elapsed().as_secs_f64();
        assert_eq!(report.unfinished, 0, "arrivals left behind in bench run");
        assert_eq!(report.outcomes.len() as u64, stream.issued());
        black_box(report);
        n as f64 / elapsed
    };

    // Warm-up, then median of 5 per leg.
    streamed_leg();
    let median = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let event = median((0..5).map(|_| schedule_leg()).collect());
    let streamed = median((0..5).map(|_| streamed_leg()).collect());
    println!("  event heap (schedule): {event:>12.0} decisions/s");
    println!("  event heap (streamed): {streamed:>12.0} decisions/s");
    h.record_ns("engine_arrival_event_heap", 1e9 / event);
    h.record_ns("engine_arrival_streamed", 1e9 / streamed);
    vec![
        ("decisions_per_sec", streamed),
        ("decisions_per_sec_event_schedule", event),
    ]
}

fn main() {
    let filter = std::env::var("ADRIAS_BENCH_FILTER").unwrap_or_default();
    let enabled = |section: &str| filter.is_empty() || section.contains(filter.as_str());

    let mut h = Harness::new("micro");
    if enabled("testbed_step") {
        bench_sim_step(&mut h);
    }
    if enabled("lstm") {
        bench_lstm(&mut h);
    }
    if enabled("gemm") {
        bench_gemm(&mut h);
    }
    if enabled("nn_forward") {
        bench_batched_forward(&mut h);
    }
    if enabled("train_step_workers") {
        bench_worker_scaling(&mut h);
    }
    if enabled("adrias_decision") || enabled("decision_throughput") {
        bench_decision(&mut h);
    }
    if enabled("obs_intern") {
        bench_obs_intern(&mut h);
    }
    let mut obs_overhead: (Option<f64>, Option<f64>) = (None, None);
    if enabled("obs_overhead") {
        obs_overhead = bench_obs_overhead(&mut h);
    }
    let mut span_overhead: Option<f64> = None;
    if enabled("span_overhead") {
        span_overhead = bench_span_overhead(&mut h);
    }
    let mut residual_overhead: Option<f64> = None;
    if enabled("residual_overhead") {
        residual_overhead = bench_residual_overhead(&mut h);
    }
    let mut engine_throughput: Vec<(&'static str, f64)> = Vec::new();
    if enabled("event_engine") {
        engine_throughput = bench_event_engine(&mut h);
    }

    let mut derived: Vec<(&str, f64)> = Vec::new();
    if let (Some(scalar), Some(simd)) = (
        h.median_ns("lstm_forward_scalar_b32_t24_h32"),
        h.median_ns("lstm_forward_b32_t24_h32"),
    ) {
        let speedup = scalar / simd;
        println!("  SIMD vs scalar LSTM forward:          {speedup:.2}x");
        derived.push(("simd_lstm_speedup_x", speedup));
    }
    if let (Some(scalar), Some(simd)) = (
        h.median_ns("gemm_transb_scalar_64x128x64"),
        h.median_ns("gemm_transb_64x128x64"),
    ) {
        let speedup = scalar / simd;
        println!("  SIMD vs scalar transb GEMM:           {speedup:.2}x");
        derived.push(("simd_gemm_speedup_x", speedup));
    }
    if let (Some(per_sample), Some(batched)) = (
        h.median_ns("nn_forward_per_sample_b32"),
        h.median_ns("nn_forward_batched_b32"),
    ) {
        let speedup = per_sample / batched;
        println!("  batched vs per-sample (same kernels): {speedup:.2}x");
        derived.push(("batched_forward_speedup_x", speedup));
    }
    if let (Some(seed), Some(batched)) = (
        h.median_ns("nn_forward_per_sample_seed_engine_b32"),
        h.median_ns("nn_forward_batched_b32"),
    ) {
        let speedup = seed / batched;
        println!("  batched vs seed engine path:          {speedup:.2}x");
        derived.push(("batched_vs_seed_speedup_x", speedup));
    }
    if let (Some(w1), Some(w2)) = (
        h.median_ns("train_step_workers_1"),
        h.median_ns("train_step_workers_2"),
    ) {
        derived.push(("worker_dispatch_overhead_x", w2 / w1));
    }
    if let (Some(slow), Some(cached)) = (
        h.median_ns("adrias_decision"),
        h.median_ns("adrias_decision_cached"),
    ) {
        let speedup = slow / cached;
        println!("  cached fast-lane vs slow decision:    {speedup:.2}x");
        derived.push(("decision_fastpath_speedup_x", speedup));
    }
    if let (Some(slow), Some(fast)) = (
        h.median_ns("adrias_decision"),
        h.median_ns("adrias_decision_fastpath"),
    ) {
        derived.push(("decision_miss_speedup_x", slow / fast));
    }
    if let (Some(owned), Some(hit)) = (
        h.median_ns("obs_name_to_owned"),
        h.median_ns("obs_intern_hit"),
    ) {
        derived.push(("obs_intern_vs_owned_x", owned / hit));
    }
    if let Some(traced) = obs_overhead.0 {
        println!("  traced vs plain engine run:           {traced:.3}x");
        derived.push(("obs_tracing_overhead_x", traced));
    }
    if let Some(observed) = obs_overhead.1 {
        println!("  observed vs plain engine run:         {observed:.3}x");
        derived.push(("obs_overhead_x", observed));
    }
    if let Some(spans) = span_overhead {
        println!("  spans+sketches vs spans-off run:      {spans:.3}x");
        derived.push(("span_overhead_x", spans));
    }
    if let Some(tracked) = residual_overhead {
        println!("  tracked vs observed engine run:       {tracked:.3}x");
        derived.push(("online_residual_overhead_x", tracked));
    }
    derived.extend(engine_throughput);

    // `cargo bench` runs with the package directory as cwd; anchor the
    // report at the workspace root so CI and humans find it in one place.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_nn.json");
    h.write_json(&path, &derived).expect("write BENCH_nn.json");
    println!("wrote {}", path.display());
}
