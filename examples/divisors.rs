//! The `divisors` process of Figure 1: compilation to the Petri net of
//! Figure 3, scheduling and task generation.
//!
//! Run with `cargo run --example divisors`.

use qss_codegen::{generate_task, TaskOptions};
use qss_core::{schedule_system, ScheduleOptions, SearchBudget, SearchContext};
use qss_flowc::{compile, link, parse_process, SystemSpec};
use qss_petri::dot::to_dot;
use qss_sim::{run_singletask, CycleCostModel, EnvEvent, SingleTaskConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let process = parse_process(qss_flowc::examples::DIVISORS)?;

    // Per-process compilation (Figure 3): the Petri net with dangling port
    // places, printable as Graphviz DOT.
    let compiled = compile(&process)?;
    println!(
        "compiled `divisors`: {} places, {} transitions",
        compiled.net.num_places(),
        compiled.net.num_transitions()
    );
    println!(
        "\nGraphviz of the compiled net (Figure 3):\n{}",
        to_dot(&compiled.net)
    );

    // Linking against the environment (in/max/all all unconnected) and
    // scheduling the uncontrollable `in` port.
    let spec = SystemSpec::new("divisors_system").with_process(process);
    let system = link(&spec)?;
    let context = SearchContext::new(&system.net);
    let (schedules, _profile) = schedule_system(
        &system,
        &context,
        &ScheduleOptions::default(),
        &SearchBudget::unlimited(),
    )?;
    let schedule = &schedules.schedules[0];
    println!(
        "schedule for `divisors.in`: {} nodes, {} edges",
        schedule.num_nodes(),
        schedule.num_edges()
    );

    let task = generate_task(
        &system,
        schedule,
        &schedules.channel_bounds,
        &TaskOptions::default(),
    )?;
    println!("\ngenerated task:\n{}", task.code);

    // Execute the generated task on a few inputs: the values written to
    // `max` and `all` are the divisors of each input.
    let events: Vec<EnvEvent> = [12i64, 9, 7]
        .into_iter()
        .map(|n| EnvEvent::new("divisors", "in", n))
        .collect();
    let report = run_singletask(
        &system,
        &schedules.schedules,
        &events,
        &SingleTaskConfig::new(CycleCostModel::optimized()),
    )?;
    println!("max outputs: {:?}", report.output("divisors", "max"));
    println!("all outputs: {:?}", report.output("divisors", "all"));
    Ok(())
}
