//! Table 3 — the detector registry: 14 basic detectors and their sampled
//! parameters, 133 configurations in total.
//!
//! Run: `cargo run --release -p opprentice-bench --bin table3`
//! Asserts the exact count the paper commits to and prints the inventory.

use opprentice_detectors::registry::{registry, CONFIG_COUNT};
use std::collections::BTreeMap;

fn main() {
    let reg = registry(60);
    assert_eq!(
        reg.len(),
        CONFIG_COUNT,
        "registry must have exactly 133 configurations"
    );

    let mut by_detector: BTreeMap<&'static str, Vec<String>> = BTreeMap::new();
    for spec in &reg {
        by_detector
            .entry(spec.name())
            .or_default()
            .push(spec.params());
    }

    println!("Table 3: basic detectors and sampled parameters\n");
    println!("{:<22} {:>9}  sampled parameters", "detector", "# configs");
    let mut rows = Vec::new();
    let mut total = 0usize;
    for (name, configs) in &by_detector {
        let preview = if configs.len() <= 3 {
            configs.join("; ")
        } else {
            format!("{}; …; {}", configs[0], configs.last().unwrap())
        };
        println!("{:<22} {:>9}  {}", name, configs.len(), preview);
        rows.push(format!("{name},{}", configs.len()));
        total += configs.len();
    }
    println!("{:<22} {:>9}", "total", total);
    assert_eq!(by_detector.len(), 14, "must be 14 basic detectors");
    assert_eq!(total, 133);
    rows.push(format!("total,{total}"));
    opprentice_bench::write_csv("table3.csv", "detector,configurations", &rows);
    println!("\nMatches the paper: 14 basic detectors / 133 configurations.");
}
