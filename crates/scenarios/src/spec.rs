//! Scenario specifications.

use adrias_orchestrator::engine::EngineConfig;
use adrias_workloads::ArrivalProcess;

/// One trace-collection / evaluation scenario.
///
/// # Examples
///
/// ```
/// use adrias_scenarios::ScenarioSpec;
///
/// let spec = ScenarioSpec::new(5.0, 40.0, 3600.0, 7);
/// assert_eq!(spec.arrivals().max_interval_s(), 40.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSpec {
    /// Minimum inter-arrival gap, seconds (the paper uses 5).
    pub spawn_min_s: f64,
    /// Maximum inter-arrival gap, seconds (20 = heavy … 60 = relaxed).
    pub spawn_max_s: f64,
    /// Scenario duration, seconds (1 h in the paper).
    pub duration_s: f64,
    /// Seed controlling arrivals, workload choice and random placement.
    pub seed: u64,
}

impl ScenarioSpec {
    /// Creates a specification.
    ///
    /// # Panics
    ///
    /// Panics on non-positive duration or invalid spawn bounds.
    pub fn new(spawn_min_s: f64, spawn_max_s: f64, duration_s: f64, seed: u64) -> Self {
        assert!(duration_s > 0.0, "duration must be positive");
        assert!(
            spawn_min_s > 0.0 && spawn_min_s <= spawn_max_s,
            "invalid spawn bounds"
        );
        Self {
            spawn_min_s,
            spawn_max_s,
            duration_s,
            seed,
        }
    }

    /// The arrival process for this scenario.
    pub fn arrivals(&self) -> ArrivalProcess {
        ArrivalProcess::new(self.spawn_min_s, self.spawn_max_s)
    }

    /// The engine configuration every replay of this scenario uses: the
    /// default engine under `qos_p99_ms`, its latency RNG seeded from
    /// the scenario (`seed ^ 0xE6E`). Sharing it is what makes observed
    /// and unobserved replays of one spec bit-identical.
    pub fn engine_config(&self, qos_p99_ms: Option<f32>) -> EngineConfig {
        EngineConfig {
            seed: self.seed ^ 0xE6E,
            qos_p99_ms,
            ..EngineConfig::default()
        }
    }

    /// Human-readable congestion label, e.g. `{5,40}`.
    pub fn label(&self) -> String {
        format!("{{{},{}}}", self.spawn_min_s, self.spawn_max_s)
    }
}

/// The paper's corpus: 72 one-hour scenarios — spawn-interval maxima
/// swept over {20, 25, …, 60} (9 classes) with 8 seeds each.
pub fn paper_corpus() -> Vec<ScenarioSpec> {
    scaled_corpus(72, 3600.0)
}

/// A scaled-down corpus with the same structure: `n` scenarios of
/// `duration_s` seconds, cycling through the 9 spawn-interval classes.
///
/// # Panics
///
/// Panics if `n` is zero or the duration is non-positive.
pub fn scaled_corpus(n: usize, duration_s: f64) -> Vec<ScenarioSpec> {
    assert!(n > 0, "corpus needs at least one scenario");
    (0..n)
        .map(|i| {
            let class = i % 9;
            let spawn_max = 20.0 + 5.0 * class as f64;
            ScenarioSpec::new(5.0, spawn_max, duration_s, 0xC0FFEE + i as u64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_corpus_has_72_hourly_scenarios() {
        let corpus = paper_corpus();
        assert_eq!(corpus.len(), 72);
        assert!(corpus.iter().all(|s| s.duration_s == 3600.0));
        // All 9 congestion classes present, 8 times each.
        for class in 0..9 {
            let max = 20.0 + 5.0 * class as f64;
            let count = corpus.iter().filter(|s| s.spawn_max_s == max).count();
            assert_eq!(count, 8, "class {{5,{max}}}");
        }
    }

    #[test]
    fn seeds_are_unique() {
        let corpus = paper_corpus();
        let mut seeds: Vec<u64> = corpus.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 72);
    }

    #[test]
    fn label_formats_like_the_paper() {
        let spec = ScenarioSpec::new(5.0, 20.0, 100.0, 0);
        assert_eq!(spec.label(), "{5,20}");
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn zero_duration_rejected() {
        let _ = ScenarioSpec::new(5.0, 20.0, 0.0, 0);
    }
}
