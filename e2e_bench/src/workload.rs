//! The three traffic shapes. Arrivals are open-loop in simulated time;
//! the host replays them as a batch, so throughput is reported at the
//! stated input size, not at an offered host-side rate.

use adrias_core::rng::{Rng, SeedableRng, Xoshiro256pp};
use adrias_orchestrator::engine::{EngineConfig, GeneratedStream, ScheduledArrival};
use adrias_workloads::{
    ibench, keyvalue, spark, ArrivalSource, DiurnalSource, MemoryMode, PoissonSource,
    WorkloadProfile,
};

/// p99 QoS target of the latency-critical rule, milliseconds.
pub const QOS_P99_MS: f32 = 5.0;
/// Slack of the best-effort rule.
pub const BETA: f32 = 0.8;

/// Every workload shifts its arrivals by this much so the Watcher
/// window is full before the first admission: each decision is then a
/// real prediction, never the warm-up default.
const WARMUP_S: f64 = 120.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Poisson λ = 150/s of 1 s Spark jobs (about a thousand resident
    /// once contention stretches them): the per-arrival engine path,
    /// stepping at high residency, memoised decisions (≈99.3% hits) and
    /// report retention.
    PoissonDense,
    /// Poisson λ = 1/s of 5 s Spark jobs (tens resident): ≈63% of
    /// decisions see a new Watcher window, so the LSTMs dominate. The
    /// rate keeps the median decision inside the miss mode; at 2/s the
    /// median fell on the upper tail of the hits and swung 2× between
    /// runs.
    PoissonSparse,
    /// The deployment scenario: diurnal arrivals over the full catalog
    /// (Spark + redis/memcached), every fifth arrival an iBench
    /// stressor forced local; the observability layer is attached.
    DiurnalMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PoissonDense,
        Workload::PoissonSparse,
        Workload::DiurnalMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PoissonDense => "poisson_dense",
            Workload::PoissonSparse => "poisson_sparse",
            Workload::DiurnalMixed => "diurnal_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the run attaches an `ObservedRun` and renders exports.
    pub fn observed(self) -> bool {
        self == Workload::DiurnalMixed
    }

    /// Simulated arrival horizon (after the warm-up shift), seconds.
    fn horizon_s(self) -> f64 {
        match self {
            Workload::PoissonDense => 400.0,
            Workload::PoissonSparse => 7200.0,
            Workload::DiurnalMixed => 14400.0,
        }
    }

    pub fn engine_config(self, seed: u64) -> EngineConfig {
        EngineConfig {
            qos_p99_ms: Some(QOS_P99_MS),
            seed: seed ^ 0xE2E,
            ..EngineConfig::default()
        }
    }

    fn source(self, seed: u64) -> Shifted {
        let h = self.horizon_s();
        let inner: Box<dyn ArrivalSource> = match self {
            Workload::PoissonDense => Box::new(PoissonSource::new(150.0, h, seed)),
            Workload::PoissonSparse => Box::new(PoissonSource::new(1.0, h, seed)),
            Workload::DiurnalMixed => Box::new(DiurnalSource::new(0.2, 1.0, 3600.0, h, seed)),
        };
        Shifted {
            inner,
            offset_s: WARMUP_S,
        }
    }

    /// How many arrivals `stream(seed)` will issue, so per-decision
    /// buffers can be sized before the run and stay out of its heap peak.
    pub fn arrival_count(self, seed: u64) -> usize {
        let mut source = self.source(seed);
        std::iter::from_fn(|| source.next_time()).count()
    }

    /// The arrival stream for `seed`: the same seed gives the same
    /// arrival instants, applications and forced placements.
    pub fn stream(
        self,
        seed: u64,
    ) -> GeneratedStream<Shifted, impl FnMut(u64, f64) -> ScheduledArrival> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xA995);
        let spark = spark::suite();
        let mut catalog = spark.clone();
        catalog.extend(keyvalue::suite());
        let stressors = ibench::all_profiles();
        let pick = |rng: &mut Xoshiro256pp, from: &[WorkloadProfile]| {
            from[rng.gen_range(0..from.len())].clone()
        };
        GeneratedStream::new(self.source(seed), move |idx, t| match self {
            Workload::PoissonDense => {
                ScheduledArrival::new(t, pick(&mut rng, &spark)).with_duration(1.0)
            }
            Workload::PoissonSparse => {
                ScheduledArrival::new(t, pick(&mut rng, &spark)).with_duration(5.0)
            }
            Workload::DiurnalMixed if idx % 5 == 4 => {
                ScheduledArrival::new(t, pick(&mut rng, &stressors))
                    .with_mode(MemoryMode::Local)
                    .with_duration(60.0)
            }
            Workload::DiurnalMixed => ScheduledArrival::new(t, pick(&mut rng, &catalog)),
        })
    }
}

/// Benchmark-side `ArrivalSource` adapter delaying every arrival of the
/// wrapped source by `offset_s`.
pub struct Shifted {
    inner: Box<dyn ArrivalSource>,
    offset_s: f64,
}

impl ArrivalSource for Shifted {
    fn next_time(&mut self) -> Option<f64> {
        self.inner.next_time().map(|t| t + self.offset_s)
    }

    fn exhausted(&self) -> bool {
        self.inner.exhausted()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}
