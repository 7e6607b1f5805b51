//! The false-path problem of Sec. 7.2: two processes with coupled bounded
//! loops are rejected by the conservative Petri-net abstraction, but the
//! rewrite with `SELECT` and `done` channels is schedulable.
//!
//! Run with `cargo run --example false_paths`.

use qss_core::{
    schedule_system, ScheduleError, ScheduleOptions, SearchBudget, SearchContext, SystemSchedules,
};
use qss_flowc::LinkedSystem;
use qss_flowc::{examples, link, parse_process, SystemSpec};

fn build(
    a_source: &str,
    b_source: &str,
    with_done: bool,
) -> qss_flowc::Result<qss_flowc::LinkedSystem> {
    // The naive process A is modified to wait for an environment trigger
    // before each burst so that the system has an uncontrollable input to
    // schedule against; the SELECT rewrite already declares one.
    let a_source = if a_source.contains("DPORT start") {
        a_source.to_string()
    } else {
        a_source
            .replace("(Out DPORT c0", "(In DPORT start, Out DPORT c0")
            .replace("int i,", "int g, i,")
            .replace(
                "while (1) {",
                "while (1) {\n        READ_DATA(start, g, 1);",
            )
    };
    let a = parse_process(&a_source)?;
    let b = parse_process(b_source)?;
    let mut spec = SystemSpec::new("false_paths")
        .with_process(a)
        .with_process(b)
        .with_channel("A.c0", "B.c0", None)?
        .with_channel("B.c1", "A.c1", None)?;
    if with_done {
        spec = spec
            .with_channel("A.done0", "B.done0", None)?
            .with_channel("B.done1", "A.done1", None)?;
    }
    link(&spec)
}

/// The schedules of `system` under the default options.
fn schedule(system: &LinkedSystem) -> Result<SystemSchedules, ScheduleError> {
    let context = SearchContext::new(&system.net);
    let budget = SearchBudget::unlimited();
    schedule_system(system, &context, &ScheduleOptions::default(), &budget)
        .map(|(schedules, _)| schedules)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The naive version: fixed-bound loops writing/reading c0 and c1.
    let naive = build(examples::FALSE_PATH_A, examples::FALSE_PATH_B, false)?;
    match schedule(&naive) {
        Ok(_) => println!("naive version: unexpectedly schedulable"),
        Err(e) => {
            println!("naive version: NOT schedulable, as predicted by Sec. 7.2\n  reason: {e}")
        }
    }

    // The rewrite with SELECT and done channels.
    let fixed = build(
        examples::FALSE_PATH_A_SELECT,
        examples::FALSE_PATH_B_SELECT,
        true,
    )?;
    match schedule(&fixed) {
        Ok(schedules) => {
            let s = &schedules.schedules[0];
            println!(
                "SELECT version: schedulable — {} nodes, {} edges, channel bounds all finite",
                s.num_nodes(),
                s.num_edges()
            );
            for channel in &fixed.channels {
                println!(
                    "  channel `{}` bound {}",
                    channel.name,
                    schedules.bound(channel.place)
                );
            }
        }
        Err(e) => println!("SELECT version failed to schedule: {e}"),
    }
    Ok(())
}
