//! Figure 12 — offline evaluation of the four cThld-selection metrics
//! (default 0.5, F-Score, SD(1,1), PC-Score) under three preferences:
//! moderate (r ≥ 0.66 ∧ p ≥ 0.66), sensitive-to-precision (0.6, 0.8) and
//! sensitive-to-recall (0.8, 0.6).
//!
//! For every weekly test set the oracle picks each metric's operating
//! point; the figure reports how many weekly points land inside the
//! preference box, and how that count grows as the box is scaled up.
//!
//! Paper's shape: "PC-Score always achieve\[s\] the most points inside the
//! boxes for both the original preference and the scaled-up ones."
//!
//! Run: `cargo run --release -p opprentice-bench --bin fig12 [--full]`

use opprentice::cthld::{select_operating_point, CthldMetric, Preference};
use opprentice::strategy::{EvalPlan, TrainingStrategy};
use opprentice_bench::{prepare_all, write_csv, RunOpts};
use opprentice_learn::metrics::PrPoint;

const SCALE_RATIOS: [f64; 6] = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0];

fn metric_points(curves: &[Vec<PrPoint>], metric: CthldMetric) -> Vec<PrPoint> {
    curves
        .iter()
        .filter(|c| !c.is_empty())
        .filter_map(|c| select_operating_point(c, metric))
        .collect()
}

fn pct_in_box(points: &[PrPoint], pref: &Preference) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let inside = points
        .iter()
        .filter(|p| pref.satisfied_by(p.recall, p.precision))
        .count();
    100.0 * inside as f64 / points.len() as f64
}

fn main() {
    let opts = RunOpts::from_args();
    println!("Figure 12: offline comparison of cThld-selection metrics\n");

    let preferences = [
        ("moderate", Preference::moderate()),
        (
            "sensitive-to-precision",
            Preference::sensitive_to_precision(),
        ),
        ("sensitive-to-recall", Preference::sensitive_to_recall()),
    ];

    let mut rows = Vec::new();
    for run in prepare_all(&opts) {
        let ev = run.evaluator(&opts);
        let outcomes = ev.run(TrainingStrategy::AllHistory, EvalPlan::weekly());
        let curves: Vec<Vec<PrPoint>> = outcomes.into_iter().map(|o| o.curve).collect();

        println!(
            "== KPI: {} ({} weekly test sets) ==",
            run.kpi.name,
            curves.len()
        );
        for (pname, pref) in &preferences {
            let metrics = [
                ("PC-Score", CthldMetric::PcScore(*pref)),
                ("default cThld", CthldMetric::Default),
                ("F-Score", CthldMetric::FScore),
                ("SD(1,1)", CthldMetric::Sd11),
            ];
            println!(
                "  preference {pname} (r>={}, p>={}):",
                pref.recall, pref.precision
            );
            print!("    {:<16}", "scale ratio ->");
            for r in SCALE_RATIOS {
                print!("{r:>7.1}");
            }
            println!();
            for (mname, metric) in metrics {
                let points = metric_points(&curves, metric);
                print!("    {mname:<16}");
                for ratio in SCALE_RATIOS {
                    let pct = pct_in_box(&points, &pref.scaled(ratio));
                    print!("{pct:>6.0}%");
                    rows.push(format!("{},{pname},{mname},{ratio},{pct:.1}", run.kpi.name));
                }
                println!();
            }
        }
        println!();
    }
    write_csv(
        "fig12.csv",
        "kpi,preference,metric,scale_ratio,pct_in_box",
        &rows,
    );
    println!("Shape check vs paper: PC-Score matches or beats the other metrics' in-box");
    println!("percentage at every scale ratio, and adapts across the three preferences.");
}
