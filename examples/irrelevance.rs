//! The termination-criterion comparison of Sec. 4.4 (Figure 7): pruning
//! the schedule search with a-priori place bounds requires bounds that grow
//! with the divider parameter `k`, while the irrelevant-marking criterion
//! adapts automatically.
//!
//! Run with `cargo run --example irrelevance`.

use qss_bench::experiments::divider_net;
use qss_core::{ScheduleOptions, SearchBudget, SearchContext, SearchProfile, TerminationKind};

fn main() {
    println!("divider net: transition b needs k tokens of p1, c needs k tokens of p2");
    println!(
        "{:>4} | {:>14} | {:>14} | {:>18}",
        "k", "bound k-1", "bound k", "irrelevance"
    );
    println!("{}", "-".repeat(60));
    for k in [3u32, 5, 8, 13] {
        let (net, source) = divider_net(k);
        let context = SearchContext::new(&net);
        let run = |termination| {
            let opts = ScheduleOptions {
                termination,
                ..Default::default()
            };
            let budget = SearchBudget::unlimited();
            context
                .find_schedule_profiled(&net, source, &opts, &budget, &mut SearchProfile::default())
                .map(|(_, st)| format!("{} nodes", st.nodes_created))
                .unwrap_or_else(|_| "no schedule".to_string())
        };
        println!(
            "{:>4} | {:>14} | {:>14} | {:>18}",
            k,
            run(TerminationKind::PlaceBounds { default: k - 1 }),
            run(TerminationKind::PlaceBounds { default: k }),
            run(TerminationKind::Irrelevance)
        );
    }
    println!(
        "\nno constant bound works for every k; the irrelevance criterion needs no bound at all"
    );
}
