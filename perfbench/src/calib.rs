//! A fixed amount of the benchmark's own work, timed around every round
//! to track how fast the host runs at that moment.
//!
//! The host's speed drifts: on the shared 2-vCPU box this benchmark was
//! written on, a fixed single-threaded loop took from 0.18 s to 0.30 s
//! within a minute, and the server's throughput stepped down by a quarter
//! for many minutes at a time. Medians over a run cannot hide a plateau
//! that lasts the whole run. So each round's times are scaled by how much
//! faster or slower than `REFERENCE_MS` the passes around it ran. A pass
//! uses no code of the repository, so a change to the program cannot
//! move it, only the host can.

use std::hint::black_box;
use std::time::Instant;

/// Milliseconds a pass takes on the reference host, a round figure within
/// the 27 to 32 ms the 2-vCPU box the benchmark was tuned on measured.
/// Scaled figures read as if measured on a host that runs a pass in this
/// time.
pub const REFERENCE_MS: f64 = 30.0;

/// Sliding-window length, smoothing-grid size and steps per pass.
const WINDOW: usize = 1440;
const GRID: usize = 64;
const STEPS: usize = 10000;
/// Trees and levels of the traversal forest.
const TREES: usize = 50;
const DEPTH: usize = 10;

/// A pass's fixed input, built once per run.
pub struct Calibration {
    series: Vec<f64>,
    alphas: Vec<f64>,
    /// Complete binary trees, one node array each: (feature, threshold).
    forest: Vec<Vec<(usize, f64)>>,
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn unit(state: &mut u64) -> f64 {
    (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64
}

impl Calibration {
    pub fn new() -> Calibration {
        let mut s = 0x2545_F491_4F6C_DD1D;
        let series = (0..STEPS + WINDOW).map(|_| unit(&mut s)).collect();
        let alphas = (0..GRID)
            .map(|i| (i + 1) as f64 / (GRID + 1) as f64)
            .collect();
        let forest = (0..TREES)
            .map(|_| {
                (0..(1 << DEPTH) - 1)
                    .map(|_| ((xorshift(&mut s) % GRID as u64) as usize, unit(&mut s)))
                    .collect()
            })
            .collect();
        Calibration {
            series,
            alphas,
            forest,
        }
    }

    /// Runs one pass and returns its milliseconds. Per step it does what
    /// the server does per point, in miniature: slide a sorted window and
    /// read its median, advance a grid of smoothers, and walk a forest
    /// over the resulting features.
    pub fn pass(&self) -> f64 {
        let t = Instant::now();
        let mut window = self.series[..WINDOW].to_vec();
        window.sort_by(f64::total_cmp);
        let mut level = vec![0.0; GRID];
        let mut features = vec![0.0; GRID];
        let mut votes = 0usize;
        for i in 0..STEPS {
            let old = self.series[i];
            let new = self.series[i + WINDOW];
            let at = window.partition_point(|&v| v < old);
            window.remove(at);
            let at = window.partition_point(|&v| v < new);
            window.insert(at, new);
            let median = window[WINDOW / 2];
            for ((l, f), a) in level.iter_mut().zip(&mut features).zip(&self.alphas) {
                *l = a * new + (1.0 - a) * *l;
                *f = (new - *l).abs() / (median + 1e-9);
            }
            for tree in &self.forest {
                let mut node = 0;
                while node < tree.len() {
                    let (feature, threshold) = tree[node];
                    node = 2 * node + if features[feature] < threshold { 1 } else { 2 };
                }
                votes += node & 1;
            }
        }
        black_box(votes);
        t.elapsed().as_secs_f64() * 1e3
    }
}
