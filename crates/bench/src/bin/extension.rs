//! Extension experiment — §8's closing claim: "Emerging detectors, instead
//! of going through time-consuming and often frustrating parameter tuning,
//! can be easily plugged into Opprentice."
//!
//! Three detectors that are not in Table 3 (CUSUM, sliding percentile,
//! seasonal ESD; see `opprentice_detectors::extensions`) are appended to
//! the registry with coarse, untuned parameter grids — 143 features total.
//! The forest is retrained on both feature sets; absorbing the newcomers
//! must not hurt, and may help, with zero manual work.
//!
//! Run: `cargo run --release -p opprentice-bench --bin extension [--full]`

use opprentice::features::extract_with;
use opprentice_bench::{write_csv, RunOpts};
use opprentice_datagen::{presets, SimulatedOperator};
use opprentice_detectors::extensions::extended_registry;
use opprentice_detectors::registry::registry;
use opprentice_learn::metrics::auc_pr_of;
use opprentice_learn::{Classifier, RandomForest};

fn main() {
    let opts = RunOpts::from_args();
    println!("Extension: plugging three emerging detectors into Opprentice (no tuning)\n");
    println!(
        "{:<6} {:>16} {:>16} {:>8}",
        "KPI", "133 features", "143 features", "delta"
    );

    let mut rows = Vec::new();
    for spec in presets::all() {
        let spec = presets::fast(&spec, opts.interval());
        let kpi = spec.generate();
        let labels = SimulatedOperator::default().label(&kpi).labels;
        let ppw = kpi.series.points_per_week();
        let split = 8 * ppw;

        let mut aucs = Vec::new();
        for extended in [false, true] {
            let configs = if extended {
                extended_registry(kpi.series.interval())
            } else {
                registry(kpi.series.interval())
            };
            let matrix = extract_with(&configs, &kpi.series);
            let (train, _) = matrix.dataset(&labels, 0..split);
            let mut forest = RandomForest::new(opts.forest_params_for(matrix.len()));
            forest.fit(&train);
            let scores: Vec<Option<f64>> = (split..matrix.len())
                .map(|i| matrix.usable(i).then(|| forest.score(matrix.row(i))))
                .collect();
            aucs.push(auc_pr_of(&scores, &labels.flags()[split..]));
        }
        println!(
            "{:<6} {:>16.3} {:>16.3} {:>+8.3}",
            kpi.name,
            aucs[0],
            aucs[1],
            aucs[1] - aucs[0]
        );
        rows.push(format!("{},{:.4},{:.4}", kpi.name, aucs[0], aucs[1]));
    }
    write_csv("extension.csv", "kpi,aucpr_133,aucpr_143", &rows);
    println!("\nShape check vs §8: untuned newcomers never require manual work and never");
    println!("break the pipeline — the forest simply weighs them like any other feature.");
}
