//! Figure 13 — online detection accuracy of Opprentice as a whole:
//! EWMA-based cThld prediction vs 5-fold cross-validation vs the offline
//! best case, reported as recall/precision of 4-week moving windows that
//! slide one day per step, under the operators' actual preference
//! (recall ≥ 0.66 ∧ precision ≥ 0.66).
//!
//! Paper's shape: EWMA lands more windows inside the preference region
//! than 5-fold (paper: +40% PV, +23% #SR, +110% SRT), with the best case
//! as the ceiling.
//!
//! Run: `cargo run --release -p opprentice-bench --bin fig13 [--full]`

use opprentice::cthld::Preference;
use opprentice::evaluate::moving_window_metrics;
use opprentice::predictor::{five_fold_cthld, EwmaCthldPredictor};
use opprentice::strategy::{EvalPlan, TrainingStrategy};
use opprentice_bench::{prepare_all, write_csv, RunOpts};
use opprentice_learn::TrainingSet;

fn main() {
    let opts = RunOpts::from_args();
    let pref = Preference::moderate();
    println!("Figure 13: online accuracy — EWMA vs 5-fold cThld prediction vs best case\n");

    let mut rows = Vec::new();
    for run in prepare_all(&opts) {
        let ev = run.evaluator(&opts);
        let outcomes = ev.run(TrainingStrategy::AllHistory, EvalPlan::weekly());
        if outcomes.is_empty() {
            continue;
        }
        let test_start = outcomes[0].points.start;
        let test_end = outcomes.last().unwrap().points.end;
        let span = test_end - test_start;

        // Per-point scores over the whole test span.
        let mut scores: Vec<Option<f64>> = vec![None; span];
        for o in &outcomes {
            scores[o.points.start - test_start..o.points.end - test_start]
                .clone_from_slice(&o.scores);
        }
        let truth = &run.truth().flags()[test_start..test_end];

        // Method 1: best case (oracle per-week cThld).
        let best_weekly: Vec<f64> = outcomes
            .iter()
            .map(|o| o.best_cthld(&pref).unwrap_or(0.5))
            .collect();

        // Method 2: EWMA prediction, initialized by 5-fold on the first
        // 8-week training set.
        let fp = opts.forest_params_for(run.matrix.len());
        let (init_train, _) = run.matrix.dataset(run.truth(), 0..test_start);
        let init = five_fold_cthld(&TrainingSet::new(&init_train), &pref, &fp);
        let mut ewma = EwmaCthldPredictor::paper();
        ewma.initialize(init);
        let mut ewma_weekly = Vec::with_capacity(outcomes.len());
        for best in &best_weekly {
            ewma_weekly.push(ewma.predict().expect("initialized"));
            ewma.update(*best);
        }

        // Method 3: 5-fold cross-validation on all historical data, redone
        // for every week.
        let mut fold_weekly = Vec::with_capacity(outcomes.len());
        for o in &outcomes {
            let (train, _) = run.matrix.dataset(run.truth(), 0..o.points.start);
            fold_weekly.push(five_fold_cthld(&TrainingSet::new(&train), &pref, &fp));
        }

        // Expand weekly cThlds to per-point and slide 4-week windows a day
        // at a time.
        let expand = |weekly: &[f64]| -> Vec<f64> {
            let mut out = vec![0.5; span];
            for (w, o) in outcomes.iter().enumerate() {
                for i in o.points.clone() {
                    out[i - test_start] = weekly[w];
                }
            }
            out
        };
        let window = 4 * run.ppw;
        let step = run.ppw / 7; // one day

        println!(
            "== KPI: {} ({} weekly test sets) ==",
            run.kpi.name,
            outcomes.len()
        );
        let mut in_box = Vec::new();
        for (name, weekly) in [
            ("best case", &best_weekly),
            ("EWMA", &ewma_weekly),
            ("5-fold", &fold_weekly),
        ] {
            let cthlds = expand(weekly);
            let points = moving_window_metrics(&scores, &cthlds, truth, window, step.max(1));
            let inside = points
                .iter()
                .filter(|p| pref.satisfied_by(p.recall, p.precision))
                .count();
            let pct = if points.is_empty() {
                0.0
            } else {
                100.0 * inside as f64 / points.len() as f64
            };
            println!(
                "  {:<10} {:>4}/{:<4} windows inside the preference region ({pct:.0}%)",
                name,
                inside,
                points.len()
            );
            in_box.push((name, inside, points.len()));
            for p in &points {
                rows.push(format!(
                    "{},{name},{},{:.4},{:.4}",
                    run.kpi.name, p.start, p.recall, p.precision
                ));
            }
        }
        // Anomalies flagged online by the EWMA method (paper §5.6 reports
        // the analogous totals).
        let cthlds = expand(&ewma_weekly);
        let flagged = scores
            .iter()
            .zip(&cthlds)
            .filter(|(s, c)| s.is_some_and(|s| s >= **c))
            .count();
        println!(
            "  EWMA flags {flagged} anomalous points in the test span ({:.1}%)\n",
            100.0 * flagged as f64 / span as f64
        );
    }
    write_csv(
        "fig13.csv",
        "kpi,method,window_start,recall,precision",
        &rows,
    );
    println!("Shape check vs paper: best case >= EWMA >= 5-fold on in-region window counts.");
}
