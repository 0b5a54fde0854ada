//! Quickstart: train a small Adrias stack and orchestrate a few
//! arriving applications.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use adrias::orchestrator::engine::{
    run_stream_hooked, EngineConfig, ScheduleStream, ScheduledArrival,
};
use adrias::orchestrator::Policy;
use adrias::scenarios::{train_stack, StackOptions};
use adrias::sim::TestbedConfig;
use adrias::workloads::{spark, WorkloadCatalog};

fn main() {
    println!("=== Adrias quickstart ===");
    println!("Training a small model stack on simulated traces (~1 min)...\n");

    let catalog = WorkloadCatalog::paper();
    let stack = train_stack(&catalog, &StackOptions::default());
    println!(
        "Trained: {} signatures, {} BE training records.",
        stack.signatures.len(),
        stack.be_split.0.len()
    );

    // Instantiate the policy with a 30 % slack (β = 0.7) and a 5 ms QoS.
    let mut policy = stack.policy(0.7, 5.0);
    println!("Policy: {}\n", policy.name());

    // A small arrival burst: a mix of remote-friendly and
    // remote-hostile Spark jobs plus the two stores.
    let mut arrivals = Vec::new();
    let apps = ["gmm", "pca", "nweight", "lr", "sort", "kmeans"];
    for (i, name) in apps.iter().enumerate() {
        arrivals.push(ScheduledArrival::new(
            130.0 + i as f64 * 15.0,
            spark::by_name(name).expect("catalog app"),
        ));
    }
    arrivals.push(ScheduledArrival::new(
        230.0,
        adrias::workloads::keyvalue::redis(),
    ));
    arrivals.push(ScheduledArrival::new(
        245.0,
        adrias::workloads::keyvalue::memcached(),
    ));

    let report = run_stream_hooked(
        TestbedConfig::paper(),
        EngineConfig {
            qos_p99_ms: Some(5.0),
            ..EngineConfig::default()
        },
        &mut ScheduleStream::new(&arrivals),
        &[],
        &mut policy,
        &mut (),
    );

    println!(
        "{:<12} {:>8} {:>12} {:>12}",
        "app", "mode", "runtime[s]", "p99[ms]"
    );
    for o in &report.outcomes {
        println!(
            "{:<12} {:>8} {:>12.1} {:>12}",
            o.name,
            o.mode.to_string(),
            o.runtime_s,
            o.p99_ms.map_or_else(|| "-".into(), |p| format!("{p:.2}")),
        );
    }
    let (local, remote) = report.placement_counts();
    println!(
        "\nPlacements: {local} local / {remote} remote; link traffic {:.1} MB",
        report.link_bytes / 1e6
    );
}
