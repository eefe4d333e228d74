//! The traffic mixes, each on one KPI of the paper's Table 1, and the
//! seeded generation of each session's points and operator labels.

use opprentice_datagen::{presets, KpiSpec};

/// One traffic mix against the server.
pub struct Workload {
    pub name: &'static str,
    kpi: fn() -> KpiSpec,
    /// Labeled history streamed and trained on before serving starts.
    history_days: usize,
    /// Points per request line: 1 sends `OBS`, more sends `OBSB`.
    pub batch: usize,
    /// Lines per write: a pipelining agent sends several before it reads
    /// their replies.
    pub pipeline: usize,
    /// Points the agent serves per round. Every served point stays in
    /// the session's feature matrix until the session closes, so this
    /// bounds the server's memory.
    points: usize,
}

/// Why each mix exists, and which layers it leans on:
///
/// - `pv`: page views at a 1-minute interval, the agent catching up half
///   an hour per `OBSB` line. Batched, worker-pool feature extraction and
///   forest inference dominate.
/// - `sr`: slow-response counts at a 1-minute interval, one `OBS` line
///   per point, 32 lines per write. Batching is bypassed: single-point
///   extraction and per-line protocol handling dominate.
///
/// Each mix serves one ephemeral session. On a host of a few cores, more
/// agents and their server threads measured the scheduler more than the
/// server; a durable session fsyncs a snapshot every few hundred lines,
/// and the disk of a shared host moved the figures more than the server's
/// own work did.
///
/// Both KPIs are 1-minute series, so their detectors hold day- and
/// week-long windows of 1440 and 10080 points.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "pv",
        kpi: presets::pv,
        history_days: 3,
        batch: 30,
        pipeline: 1,
        points: 40_000,
    },
    Workload {
        name: "sr",
        kpi: presets::sr,
        history_days: 3,
        batch: 1,
        pipeline: 32,
        points: 30_016,
    },
];

/// Later weeks of a KPI the seed chooses among for the served stream.
const STREAM_WEEKS: u64 = 8;

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The session's points: the labeled history, then the served stream.
pub struct SessionData {
    pub interval: u32,
    /// `None` where the KPI has a missing point.
    pub values: Vec<Option<f64>>,
    /// Ground-truth anomaly flags of the history, used as the operator's
    /// labels.
    pub flags: Vec<bool>,
    /// Points before serving starts.
    pub history: usize,
}

impl Workload {
    /// Generates the session's points for `seed`.
    ///
    /// The session monitors one KPI whose realization is fixed, and whose
    /// first days are its labeled history, so every run trains the same
    /// model: a forest's size, and so its inference
    /// cost, depends on the anomalies it learned from, which would make
    /// the seed move the figures more than the code does. The seed picks
    /// which later week of that KPI the agent serves from; a whole number
    /// of weeks on, the stream continues the history's daily and weekly
    /// shape, with its own noise, anomalies and missing points.
    pub fn generate(&self, seed: u64) -> SessionData {
        let mut spec = (self.kpi)();
        let per_week = spec.points_per_day() * 7;
        let history = self.history_days * spec.points_per_day();
        let skip = (1 + mix(seed) % STREAM_WEEKS) as usize * per_week;
        let needed = history + STREAM_WEEKS as usize * per_week + self.points;
        spec.weeks = needed.div_ceil(per_week);
        let salt = self.name.bytes().fold(0u64, |h, b| h * 31 + u64::from(b));
        // A realization without an anomaly in its history cannot be
        // trained on; take the next one.
        let mut draw = 0;
        let kpi = loop {
            spec.seed = mix(salt + (draw << 32));
            let kpi = spec.generate();
            if kpi.truth.flags()[..history].contains(&true) {
                break kpi;
            }
            draw += 1;
        };
        let stream = history + skip..history + skip + self.points;
        let values = (0..history)
            .chain(stream)
            .map(|i| kpi.series.get(i))
            .collect();
        SessionData {
            interval: spec.interval,
            values,
            flags: kpi.truth.flags()[..history].to_vec(),
            history,
        }
    }
}

/// SplitMix64: distinct, reproducible draws.
fn mix(seed: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
