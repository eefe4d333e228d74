//! Explore the 14 basic detectors directly: run every Table 3 family over
//! one KPI and rank the families by how well their best configuration
//! separates the labeled anomalies (AUCPR).
//!
//! This is the "traditional" workflow Opprentice replaces — useful for
//! understanding what each detector sees, and exactly the §5.3.1
//! observation that the best basic detector depends on the KPI.
//!
//! Run: `cargo run --release --example detector_explorer [PV|#SR|SRT]`

use opprentice_repro::datagen::presets;
use opprentice_repro::detectors::registry::registry;
use opprentice_repro::detectors::run_detector;
use opprentice_repro::learn::metrics::auc_pr_of;
use std::collections::BTreeMap;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "PV".to_string());
    let spec = presets::all()
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(&which))
        .unwrap_or_else(presets::pv);
    let spec = presets::fast(&spec, 300);
    let kpi = spec.generate();
    println!(
        "Detector explorer on {} ({} points)\n",
        kpi.name,
        kpi.series.len()
    );

    // Run all 133 configurations; keep the best AUCPR per detector family.
    let mut best: BTreeMap<&'static str, (String, f64)> = BTreeMap::new();
    for spec in registry(kpi.series.interval()) {
        let severities = run_detector(spec.detector().as_mut(), &kpi.series);
        let auc = auc_pr_of(&severities, kpi.truth.flags());
        let entry = best
            .entry(spec.name())
            .or_insert_with(|| (spec.params(), f64::MIN));
        if auc > entry.1 {
            *entry = (spec.params(), auc);
        }
    }

    let mut ranked: Vec<_> = best.into_iter().collect();
    ranked.sort_by(|a, b| b.1 .1.partial_cmp(&a.1 .1).expect("finite AUCPR"));
    println!(
        "{:<22} {:<28} {:>7}",
        "detector family", "best configuration", "AUCPR"
    );
    for (name, (config, auc)) in &ranked {
        println!("{name:<22} {config:<28} {auc:>7.3}");
    }
    println!(
        "\nTry the other KPIs — the winner changes (the paper's point about\nwhy detector selection cannot be done once and for all):"
    );
    println!("  cargo run --release --example detector_explorer '#SR'");
    println!("  cargo run --release --example detector_explorer SRT");
}
