//! The correctness check: every reply the server sent is recomputed by an
//! in-process `Opprentice` pipeline fed the same commands, and must match
//! byte for byte.

use crate::session::{Served, HISTORY_CHUNK};
use crate::workload::SessionData;
use opprentice::{Detection, Opprentice, OpprenticeConfig, Preference};
use opprentice_learn::RandomForestParams;
use opprentice_timeseries::Labels;
use std::fmt::Write as _;

/// Forest size of an `opprentice-serve` session (its `ServerConfig`
/// default); the reference pipeline must train the same forest.
const SERVER_TREES: usize = 50;

/// Renders one verdict as the server's `OBS` reply carries it.
fn push_verdict(out: &mut String, d: Option<Detection>) {
    match d {
        Some(d) => {
            let _ = write!(
                out,
                "p={:.4} cthld={:.3} anomaly={}",
                d.probability,
                d.cthld,
                u8::from(d.is_anomaly)
            );
        }
        None => out.push_str("pending"),
    }
}

/// Replays one served session through a reference pipeline and compares
/// the reply to every data line and the final counters.
pub fn check(data: &SessionData, batch: usize, served: &Served) -> Result<(), String> {
    let config = OpprenticeConfig {
        preference: Preference::moderate(),
        forest: RandomForestParams {
            n_trees: SERVER_TREES,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut p = Opprentice::new(data.interval, config);
    let step = i64::from(data.interval);
    for start in (0..data.history).step_by(HISTORY_CHUNK) {
        let end = (start + HISTORY_CHUNK).min(data.history);
        p.observe_batch(start as i64 * step, &data.values[start..end]);
    }
    p.ingest_labels(&Labels::from_flags(data.flags[..data.history].to_vec()))
        .map_err(|e| e.to_string())?;
    if !p.retrain() {
        return Err("reference pipeline could not train on the history".into());
    }

    let mut expected = String::new();
    for (k, reply) in served.replies.iter().enumerate() {
        let first = data.history + k * batch;
        let values = &data.values[first..first + batch];
        expected.clear();
        expected.push_str("OK ");
        if batch == 1 {
            push_verdict(&mut expected, p.observe(first as i64 * step, values[0]));
        } else {
            for (i, d) in p
                .observe_batch(first as i64 * step, values)
                .into_iter()
                .enumerate()
            {
                if i > 0 {
                    expected.push('|');
                }
                push_verdict(&mut expected, d);
            }
        }
        if *reply != expected {
            // Show both from a little before where they first differ.
            let at = reply
                .bytes()
                .zip(expected.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(reply.len().min(expected.len()));
            let from = at.saturating_sub(40);
            return Err(format!(
                "line {k}: server replied `…{}`, reference `…{}`",
                clip(reply.get(from..).unwrap_or(reply)),
                clip(expected.get(from..).unwrap_or(&expected))
            ));
        }
    }

    let want = format!(
        "observed={} labeled={} trained=1 cthld={:.3}",
        p.observed_len(),
        p.labeled_len(),
        p.current_cthld()
    );
    if !served.status_after.contains(&want) {
        return Err(format!(
            "final STATUS `{}` does not contain `{want}`",
            served.status_after
        ));
    }
    Ok(())
}

fn clip(s: &str) -> String {
    s.chars().take(80).collect()
}
