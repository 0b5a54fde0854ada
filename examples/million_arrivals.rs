//! One million Poisson arrivals through the event-heap engine, with a
//! self-asserted throughput floor — the CI smoke for the discrete-event
//! refactor.
//!
//! ```sh
//! cargo run --release --example million_arrivals
//! ```
//!
//! The stream path holds at most one pending open-loop arrival in the
//! heap, so the run is O(resident apps) in memory no matter how many
//! arrivals the generator emits. A second, much smaller observed leg
//! runs when `ADRIAS_OBS_DIR` is set and drops the full JSONL/Chrome
//! trace exports there (the event-engine trace artifact CI uploads).
//!
//! Environment knobs:
//!
//! * `ADRIAS_ARRIVALS` — target arrival count (default 1_000_000);
//! * `ADRIAS_OBS_DIR` — when set, export an observed 30 s leg there.

use std::time::Instant;

use adrias::obs::export::write_all;
use adrias::obs::Observer;
use adrias::orchestrator::engine::{
    run_stream_hooked, EngineConfig, GeneratedStream, ScheduledArrival,
};
use adrias::orchestrator::{ObservedRun, RoundRobinPolicy};
use adrias::sim::TestbedConfig;
use adrias::workloads::{spark, PoissonSource};

/// The ISSUE's end-to-end floor: arrivals through sim stepping must
/// sustain at least this many placement decisions per wall-clock second.
const FLOOR_DECISIONS_PER_SEC: f64 = 1e5;

fn main() {
    let target: u64 = std::env::var("ADRIAS_ARRIVALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    // λ = 2000/s keeps ~2000 apps resident at 1 s per job: dense enough
    // that every simulated second does real contention work.
    let rate_per_s = 2000.0;
    let horizon_s = target as f64 / rate_per_s;
    println!("=== million arrivals ===");
    println!("Poisson λ = {rate_per_s}/s over {horizon_s:.0} s (~{target} arrivals)\n");

    let app = spark::by_name("lr").expect("catalog app");
    let source = PoissonSource::new(rate_per_s, horizon_s, 7);
    let mut stream = GeneratedStream::new(source, |_, t| {
        ScheduledArrival::new(t, app.clone()).with_duration(1.0)
    });
    let mut policy = RoundRobinPolicy::new();
    let t0 = Instant::now();
    let report = run_stream_hooked(
        TestbedConfig::paper(),
        EngineConfig::default(),
        &mut stream,
        &[],
        &mut policy,
        &mut (),
    );
    let elapsed = t0.elapsed().as_secs_f64();
    let issued = stream.issued();
    let rate = issued as f64 / elapsed;

    println!("arrivals issued:    {issued}");
    println!("completed:          {}", report.outcomes.len());
    println!("unfinished:         {}", report.unfinished);
    println!("simulated seconds:  {:.0}", report.end_time_s);
    println!("wall seconds:       {elapsed:.2}");
    println!("decisions/s:        {rate:.0}");
    assert_eq!(report.unfinished, 0, "arrivals left behind");
    assert_eq!(report.outcomes.len() as u64, issued);
    assert!(
        rate >= FLOOR_DECISIONS_PER_SEC,
        "event engine fell below the {FLOOR_DECISIONS_PER_SEC:.0}/s floor: {rate:.0}/s"
    );
    println!("\nOK: ≥ {FLOOR_DECISIONS_PER_SEC:.0} decisions/s end-to-end");

    if let Ok(dir) = std::env::var("ADRIAS_OBS_DIR") {
        // A short observed leg (10 s, ~20 k decisions) — small enough
        // that the full audit trail and trace stay readable as a CI
        // artifact.
        let source = PoissonSource::new(rate_per_s, 10.0, 7);
        let mut stream = GeneratedStream::new(source, |_, t| {
            ScheduledArrival::new(t, app.clone()).with_duration(1.0)
        });
        let mut policy = RoundRobinPolicy::new();
        let mut obs = Observer::default();
        let mut hooks = ObservedRun::with_qos(&mut obs, None);
        run_stream_hooked(
            TestbedConfig::paper(),
            EngineConfig::default(),
            &mut stream,
            &[],
            &mut policy,
            &mut hooks,
        );
        let paths = write_all(&obs, std::path::Path::new(&dir)).expect("export obs");
        println!("observed 10 s leg exported to {}", paths.trace.display());
    }
}
