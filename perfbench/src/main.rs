//! `aid_perfbench --workload <cold|warm|standing> [--seed N] [--seconds N] [--trace 0|1]`
//!
//! Prints a human summary, then one JSON result line as the last line of
//! standard output. Exits 0 once a run completes (its `correct` field
//! carries the output checks), 2 on a bad command line, 1 when set-up
//! fails.

use aid_perfbench::report::result_line;
use aid_perfbench::run::{run, Options};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("aid_perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&options) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("aid_perfbench: {e}");
            std::process::exit(1);
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for p in &outcome.premise_failures {
        eprintln!("PREMISE FAILED: {p}");
    }
    for m in &outcome.metrics {
        println!("{:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let correct = outcome.failed == 0 && outcome.premise_failures.is_empty();
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
}
