//! The CLI subcommands, on top of the library's public API.

use crate::csvio;
use opprentice::cthld::{best_cthld, Preference};
use opprentice::evaluate::Evaluator;
use opprentice::extract_features;
use opprentice::features::extract_with;
use opprentice::postprocess::{group_alerts, DurationFilter};
use opprentice::strategy::{EvalPlan, TrainingStrategy};
use opprentice_datagen::presets;
use opprentice_detectors::registry;
use opprentice_learn::metrics::{pr_curve, precision_recall};
use opprentice_learn::{auc_pr, Classifier, RandomForest, RandomForestParams};
use opprentice_timeseries::{Labels, TimeSeries};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Parsed `--key value` options.
#[derive(Debug, Default)]
pub struct Options {
    map: BTreeMap<String, String>,
}

impl Options {
    /// Parses `--key value` pairs; rejects dangling keys.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected `--option`, got `{key}`"));
            };
            let Some(value) = it.next() else {
                return Err(format!("`--{name}` needs a value"));
            };
            map.insert(name.to_string(), value.clone());
        }
        Ok(Options { map })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("`--{key}` is required"))
    }

    /// Public variant of [`Options::required`] for sibling modules.
    pub fn required_opt(&self, key: &str) -> Result<&str, String> {
        self.required(key)
    }

    /// Public variant of [`Options::num`] for sibling modules.
    pub fn num_opt<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.num(key, default)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("bad `--{key}` value `{v}`: {e}")),
        }
    }

    fn forest_params(&self) -> Result<RandomForestParams, String> {
        Ok(RandomForestParams {
            n_trees: self.num("trees", 50usize)?,
            ..Default::default()
        })
    }

    fn preference(&self) -> Result<Preference, String> {
        Ok(Preference {
            recall: self.num("recall", 0.66f64)?,
            precision: self.num("precision", 0.66f64)?,
        })
    }

    fn data(&self) -> Result<csvio::LabeledCsv, String> {
        csvio::read(&PathBuf::from(self.required("data")?))
    }
}

/// `opprentice generate` — synthesize a labeled KPI CSV.
pub fn generate(opts: &Options) -> Result<(), String> {
    let kpi_name = opts.get("kpi").unwrap_or("pv").to_lowercase();
    let mut spec = match kpi_name.as_str() {
        "pv" => presets::pv(),
        "sr" | "#sr" => presets::sr(),
        "srt" => presets::srt(),
        other => return Err(format!("unknown preset `{other}` (use pv, sr or srt)")),
    };
    if let Some(weeks) = opts.get("weeks") {
        spec.weeks = weeks.parse().map_err(|e| format!("bad --weeks: {e}"))?;
    }
    if let Some(interval) = opts.get("interval") {
        let interval: u32 = interval
            .parse()
            .map_err(|e| format!("bad --interval: {e}"))?;
        spec = presets::fast(&spec, interval);
    }
    if let Some(seed) = opts.get("seed") {
        spec.seed = seed.parse().map_err(|e| format!("bad --seed: {e}"))?;
    }
    let out = PathBuf::from(opts.required("out")?);
    let kpi = spec.generate();
    csvio::write(&out, &kpi.series, &kpi.truth)?;
    println!(
        "wrote {}: {} points at {}s interval, {} anomalous ({:.1}%)",
        out.display(),
        kpi.series.len(),
        kpi.series.interval(),
        kpi.truth.anomaly_count(),
        100.0 * kpi.truth.anomaly_ratio()
    );
    Ok(())
}

/// `opprentice detect` — train on a prefix, alert on the rest.
pub fn detect(opts: &Options) -> Result<(), String> {
    let data = opts.data()?;
    let train_weeks: usize = opts.num("train-weeks", 8)?;
    let min_duration: usize = opts.num("min-duration", 1)?;
    let pref = opts.preference()?;

    let matrix = extract_features(&data.series);
    let ppw = data.series.points_per_week();
    let split = (train_weeks * ppw).min(matrix.len());
    if split == 0 || split == matrix.len() {
        return Err(format!(
            "--train-weeks {train_weeks} leaves no training or no test data"
        ));
    }

    let (train, _) = matrix.dataset(&data.labels, 0..split);
    if train.positives() == 0 {
        return Err("the training prefix has no labeled anomalies".to_string());
    }
    let mut forest = RandomForest::new(opts.forest_params()?);
    forest.fit(&train);

    // Pick the cThld on the training prefix under the preference.
    let train_scores: Vec<Option<f64>> = (0..split)
        .map(|i| matrix.usable(i).then(|| forest.score(matrix.row(i))))
        .collect();
    let train_curve = pr_curve(&train_scores, &data.labels.flags()[..split]);
    let cthld = best_cthld(&train_curve, &pref).unwrap_or(0.5);

    // Detect the rest.
    let probs: Vec<Option<f64>> = (split..matrix.len())
        .map(|i| matrix.usable(i).then(|| forest.score(matrix.row(i))))
        .collect();
    let raw: Vec<bool> = probs
        .iter()
        .map(|p| p.is_some_and(|p| p >= cthld))
        .collect();
    let filtered = DurationFilter::apply(min_duration, &raw);
    let truth = &data.labels.flags()[split..];
    let (recall, precision) = precision_recall(&filtered, truth);

    println!(
        "trained on {train_weeks} weeks ({} samples, {} anomalous)",
        train.len(),
        train.positives()
    );
    println!(
        "cThld {cthld:.3} for preference recall>={} precision>={}",
        pref.recall, pref.precision
    );
    let masked: Vec<Option<f64>> = probs
        .iter()
        .zip(&filtered)
        .map(|(p, &keep)| if keep { *p } else { None })
        .collect();
    let alerts = group_alerts(&masked, cthld);
    println!("\n{} alert(s) on the detection span:", alerts.len());
    for a in alerts.iter().take(20) {
        let from = data.series.timestamp_at(split + a.window.start);
        let to = data.series.timestamp_at(split + a.window.end - 1);
        println!(
            "  t={from}..{to}  {} point(s)  peak p={:.2}",
            a.window.len(),
            a.peak_probability
        );
    }
    if alerts.len() > 20 {
        println!("  … and {} more", alerts.len() - 20);
    }
    println!("\nagainst the provided labels: recall {recall:.2}, precision {precision:.2}");
    Ok(())
}

/// `opprentice evaluate` — walk-forward weekly retraining, per-week AUCPR.
pub fn evaluate(opts: &Options) -> Result<(), String> {
    let data = opts.data()?;
    let train_weeks: usize = opts.num("train-weeks", 8)?;
    let pref = opts.preference()?;

    let matrix = extract_features(&data.series);
    let ppw = data.series.points_per_week();
    let mut ev = Evaluator::new(&matrix, &data.labels, ppw);
    ev.forest_params = opts.forest_params()?;
    let plan = EvalPlan {
        initial_train_weeks: train_weeks,
        test_weeks: 1,
    };
    let outcomes = ev.run(TrainingStrategy::AllHistory, plan);
    if outcomes.is_empty() {
        return Err("not enough data beyond the training prefix".to_string());
    }

    println!(
        "{:<8} {:>8} {:>12} {:>9} {:>11}",
        "week", "AUCPR", "best cThld", "recall", "precision"
    );
    for o in &outcomes {
        match best_cthld(&o.curve, &pref) {
            Some(c) => {
                let p = o
                    .curve
                    .iter()
                    .find(|p| p.threshold == c)
                    .expect("point on curve");
                println!(
                    "{:<8} {:>8.3} {:>12.3} {:>9.2} {:>11.2}",
                    o.test_weeks.start + 1,
                    o.auc_pr,
                    c,
                    p.recall,
                    p.precision
                );
            }
            None => println!(
                "{:<8} {:>8} (no labeled anomalies)",
                o.test_weeks.start + 1,
                "-"
            ),
        }
    }
    let mean: f64 = outcomes.iter().map(|o| o.auc_pr).sum::<f64>() / outcomes.len() as f64;
    println!("\nmean weekly AUCPR: {mean:.3}");
    Ok(())
}

/// `opprentice rank` — rank the 14 basic detectors on this data.
pub fn rank(opts: &Options) -> Result<(), String> {
    let data = opts.data()?;
    println!(
        "{:<22} {:<30} {:>7}",
        "detector family", "best configuration", "AUCPR"
    );
    for (family, params, auc) in best_per_family(&data.series, &data.labels) {
        println!("{family:<22} {params:<30} {auc:>7.3}");
    }
    Ok(())
}

/// Each detector family's best configuration on `series` by AUCPR against
/// `labels`, as `(family, parameters, AUCPR)`, best family first.
fn best_per_family(series: &TimeSeries, labels: &Labels) -> Vec<(&'static str, String, f64)> {
    let specs = registry(series.interval());
    let matrix = extract_with(&specs, series);
    let mut best: BTreeMap<&'static str, (String, f64)> = BTreeMap::new();
    for (c, spec) in specs.iter().enumerate() {
        let auc = auc_pr(&pr_curve(&matrix.column_scores(c), labels.flags()));
        let entry = best
            .entry(spec.name())
            .or_insert_with(|| (String::new(), f64::MIN));
        if auc > entry.1 {
            *entry = (spec.params(), auc);
        }
    }
    let mut ranked: Vec<(&'static str, String, f64)> = best
        .into_iter()
        .map(|(family, (params, auc))| (family, params, auc))
        .collect();
    ranked.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite AUCPR"));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(pairs: &[(&str, &str)]) -> Options {
        let args: Vec<String> = pairs
            .iter()
            .flat_map(|(k, v)| [format!("--{k}"), v.to_string()])
            .collect();
        Options::parse(&args).unwrap()
    }

    #[test]
    fn options_parse_pairs() {
        let o = opts(&[("kpi", "srt"), ("weeks", "4")]);
        assert_eq!(o.get("kpi"), Some("srt"));
        assert_eq!(o.num::<usize>("weeks", 0).unwrap(), 4);
        assert_eq!(o.num::<usize>("absent", 7).unwrap(), 7);
    }

    #[test]
    fn options_reject_danglers() {
        assert!(Options::parse(&["--weeks".to_string()]).is_err());
        assert!(Options::parse(&["weeks".to_string(), "4".to_string()]).is_err());
    }

    #[test]
    fn generate_then_detect_round_trip() {
        let dir = std::env::temp_dir().join(format!("opprentice_cli_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("kpi.csv");
        // Small SRT so the whole test runs in seconds.
        generate(&opts(&[
            ("kpi", "srt"),
            ("weeks", "10"),
            ("out", csv.to_str().unwrap()),
        ]))
        .unwrap();
        detect(&opts(&[
            ("data", csv.to_str().unwrap()),
            ("train-weeks", "8"),
            ("trees", "10"),
        ]))
        .unwrap();
        rank(&opts(&[("data", csv.to_str().unwrap())])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every family's best configuration is printed as its spec's exact
    /// parameter text: parameters that themselves end in `)` (TSD's
    /// `week(s)`, ARIMA's `(pending)`) come through whole.
    #[test]
    fn rank_reports_whole_parameter_text() {
        let n = 24 * 7 * 4;
        let mut series = TimeSeries::new(0, 3600);
        let mut labels = Labels::all_normal(0);
        for i in 0..n {
            let spike = i % 97 == 60;
            let v = 100.0 + 20.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin();
            series.push(if spike { v + 150.0 } else { v });
            labels.push(spike);
        }
        let ranked = best_per_family(&series, &labels);
        assert_eq!(ranked.len(), 14);
        let known: Vec<(&str, String)> = registry(3600)
            .iter()
            .map(|s| (s.name(), s.params()))
            .collect();
        for (family, params, _) in &ranked {
            assert!(
                known.contains(&(*family, params.clone())),
                "{family}: {params:?} is not a registry configuration"
            );
        }
        let params_of = |family: &str| &ranked.iter().find(|r| r.0 == family).unwrap().1;
        assert!(params_of("TSD MAD").ends_with("week(s)"));
        assert_eq!(params_of("ARIMA"), "estimated (pending)");
    }

    #[test]
    fn detect_requires_training_anomalies() {
        let dir = std::env::temp_dir().join(format!("opprentice_cli2_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("flat.csv");
        // A flat, anomaly-free KPI.
        let mut body = String::from("timestamp,value,label\n");
        for i in 0..(24 * 7 * 9) {
            body.push_str(&format!("{},{},0\n", i * 3600, 100));
        }
        std::fs::write(&csv, body).unwrap();
        let err = detect(&opts(&[("data", csv.to_str().unwrap()), ("trees", "5")])).unwrap_err();
        assert!(err.contains("no labeled anomalies"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
