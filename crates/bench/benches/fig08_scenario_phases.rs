//! Fig. 8 — concurrent applications and metric phases for three
//! representative congestion levels: heavy {5,20}, moderate {5,40} and
//! relaxed {5,60}.

use adrias_bench::banner;
use adrias_orchestrator::engine::{run_stream_hooked, EngineConfig, ScheduleStream};
use adrias_orchestrator::RandomPolicy;
use adrias_scenarios::schedule::{build_schedule, PlacementStyle};
use adrias_scenarios::ScenarioSpec;
use adrias_sim::{Testbed, TestbedConfig};
use adrias_telemetry::{stats, Metric};
use adrias_workloads::WorkloadCatalog;

fn main() {
    banner(
        "Fig. 8",
        "scenario phases: concurrent apps and metric dynamics",
        "heavy {5,20}, moderate {5,40}, relaxed {5,60} scenarios expose \
         different congestion phases (paper: up to 35 concurrent apps)",
    );
    let catalog = WorkloadCatalog::paper();
    for (label, max_gap, seed) in [
        ("heavy {5,20}", 20.0, 81u64),
        ("moderate {5,40}", 40.0, 82),
        ("relaxed {5,60}", 60.0, 83),
    ] {
        let spec = ScenarioSpec::new(5.0, max_gap, 1800.0, seed);
        let schedule = build_schedule(&spec, &catalog, PlacementStyle::RandomForced);

        // Re-run the schedule manually to sample resident counts.
        let mut tb = Testbed::new(TestbedConfig::paper(), seed);
        let mut next = 0usize;
        let mut concurrent = Vec::new();
        let mut timeline = Vec::new();
        while tb.time_s() < spec.duration_s {
            while next < schedule.len() && schedule[next].at_s <= tb.time_s() {
                let a = &schedule[next];
                let dur = a.duration_s.unwrap_or_else(|| a.profile.base_runtime_s());
                tb.deploy_for(a.profile.clone(), a.forced_mode.unwrap(), dur);
                next += 1;
            }
            tb.step();
            concurrent.push(tb.resident_count() as f32);
            if (tb.time_s() as usize).is_multiple_of(300) {
                timeline.push(tb.resident_count());
            }
        }
        println!("\n--- {label}: {} arrivals ---", schedule.len());
        println!(
            "concurrent apps: mean {:.1}, p95 {:.0}, max {:.0}",
            stats::mean(&concurrent),
            stats::percentile(&concurrent, 95.0),
            concurrent.iter().copied().fold(0.0f32, f32::max)
        );
        println!("resident count every 300 s: {timeline:?}");

        // Metric dynamics via the engine (includes Watcher feed).
        let mut policy = RandomPolicy::new(seed);
        let report = run_stream_hooked(
            TestbedConfig::paper(),
            EngineConfig::default(),
            &mut ScheduleStream::new(&schedule),
            &[],
            &mut policy,
            &mut (),
        );
        for metric in [Metric::LlcLoads, Metric::LinkLatency] {
            let vals: Vec<f32> = report.samples.iter().map(|s| s.get(metric)).collect();
            println!(
                "{}: min {:.3e}, mean {:.3e}, max {:.3e}",
                metric,
                vals.iter().copied().fold(f32::INFINITY, f32::min),
                stats::mean(&vals),
                vals.iter().copied().fold(0.0f32, f32::max)
            );
        }
    }
    println!("\nmeasured: heavier spawn intervals sustain more concurrent");
    println!("applications and wider metric swings, as in Fig. 8.");
}
