//! Durable snapshots of a full [`Opprentice`] session (OPRF v5).
//!
//! The learn crate's OPRF model file persists only the serving model; a
//! crash-safe serving layer needs the *whole* trained state: the model,
//! the EWMA cThld prediction, the accumulated operator labels, the model
//! version, and the configuration the session was created with. This
//! module defines version 5 of the `OPRF` container capturing exactly
//! that, plus the write-ahead log sequence number the snapshot corresponds
//! to:
//!
//! ```text
//! magic "OPRF" | version u16 = 5
//! interval u32
//! recall f64 | precision f64 | cthld_alpha f64 | fallback_cthld f64
//! n_trees u32 | sample_fraction f64 | seed u64
//! opt u8 (bit0 max_features, bit1 max_depth, bit2 n_bins) | [u32 each]
//! prediction u8 | [f64]
//! n_observed u64 | wal_seq u64 | model_version u64
//! n_labels u64 | ceil(n_labels/8) bytes, LSB-first
//! model u8 | [len u32 | OPRF v6 model bytes]
//! ```
//!
//! The model block is the learn crate's model file
//! (`opprentice_learn::persist`), without the forest params the config
//! block holds. Containers were v2 before `model_version` existed and v4
//! while they carried the training-time forest; older versions are refused
//! (v3 and v6 are the learn crate's formats).
//!
//! All integers little-endian. Decoding validates the magic, version, every
//! length against the bytes actually present (so hostile counts cannot
//! drive huge allocations), and rejects trailing bytes. The model is
//! decoded once, here, against the width of the interval's feature rows,
//! so a snapshot that decodes holds a model that can serve.
//!
//! Deliberately *not* captured: the raw point log and the detectors'
//! sliding-window state. Those are rebuilt by replaying the session's
//! write-ahead log (cheap, deterministic), which is what guarantees a
//! restored session scores incoming points identically to one that never
//! crashed.

use crate::cthld::Preference;
use crate::{Opprentice, OpprenticeConfig};
use bytes::{Buf, BufMut};
use opprentice_detectors::registry;
use opprentice_learn::persist::{decode_params, encode_params, PersistError};
use opprentice_learn::{CompiledForest, RandomForestParams};
use opprentice_timeseries::{is_supported_interval, Labels};

const MAGIC: &[u8; 4] = b"OPRF";
const VERSION: u16 = 5;

/// Errors produced when decoding or installing a session snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// The magic bytes did not match.
    BadMagic,
    /// The container version is not 5.
    UnsupportedVersion(u16),
    /// Bytes remained after the last field.
    TrailingBytes(usize),
    /// A field held a value outside its legal domain.
    BadField(&'static str),
    /// The nested model failed to decode.
    Model(PersistError),
    /// The snapshot disagrees with the session state it was installed into
    /// (the replayed WAL prefix diverged from what was snapshotted).
    StateMismatch(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "bad snapshot magic"),
            SnapshotError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::TrailingBytes(n) => write!(f, "{n} trailing bytes after snapshot"),
            SnapshotError::BadField(name) => write!(f, "snapshot field `{name}` out of domain"),
            SnapshotError::Model(e) => write!(f, "nested model: {e}"),
            SnapshotError::StateMismatch(what) => {
                write!(f, "snapshot does not match replayed session state: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A decoded (or captured) full-session snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// KPI sampling interval in seconds.
    pub interval: u32,
    /// The session's accuracy preference.
    pub preference: Preference,
    /// EWMA smoothing constant.
    pub cthld_alpha: f64,
    /// cThld used before any prediction exists.
    pub fallback_cthld: f64,
    /// Forest hyperparameters (needed to reproduce retraining exactly).
    pub forest_params: RandomForestParams,
    /// The EWMA prediction at snapshot time.
    pub prediction: Option<f64>,
    /// Points observed at snapshot time.
    pub n_observed: u64,
    /// Number of successfully applied WAL commands this snapshot covers.
    pub wal_seq: u64,
    /// The serving model's version at snapshot time (0 = untrained).
    pub model_version: u64,
    /// Operator labels at snapshot time.
    pub labels: Labels,
    /// The serving model (`None` if untrained).
    pub model: Option<CompiledForest>,
}

impl SessionSnapshot {
    /// Captures the full trained state of a live pipeline.
    pub fn capture(opp: &Opprentice, wal_seq: u64) -> SessionSnapshot {
        let config = opp.config();
        SessionSnapshot {
            interval: opp.interval(),
            preference: config.preference,
            cthld_alpha: config.cthld_alpha,
            fallback_cthld: config.fallback_cthld,
            forest_params: config.forest.clone(),
            prediction: opp.predicted_cthld(),
            n_observed: opp.observed_len() as u64,
            wal_seq,
            model_version: opp.model_version(),
            labels: opp.labels().clone(),
            model: opp.compiled_forest().cloned(),
        }
    }

    /// The configuration to recreate the pipeline with.
    pub fn config(&self) -> OpprenticeConfig {
        OpprenticeConfig {
            preference: self.preference,
            forest: self.forest_params.clone(),
            cthld_alpha: self.cthld_alpha,
            fallback_cthld: self.fallback_cthld,
        }
    }

    /// Serializes to the OPRF v5 container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.put_u16_le(VERSION);
        out.put_u32_le(self.interval);
        out.put_f64_le(self.preference.recall);
        out.put_f64_le(self.preference.precision);
        out.put_f64_le(self.cthld_alpha);
        out.put_f64_le(self.fallback_cthld);
        encode_params(&self.forest_params, &mut out);
        match self.prediction {
            Some(c) => {
                out.put_u8(1);
                out.put_f64_le(c);
            }
            None => out.put_u8(0),
        }
        out.put_u64_le(self.n_observed);
        out.put_u64_le(self.wal_seq);
        out.put_u64_le(self.model_version);
        let flags = self.labels.flags();
        out.put_u64_le(flags.len() as u64);
        for chunk in flags.chunks(8) {
            let mut byte = 0u8;
            for (i, &f) in chunk.iter().enumerate() {
                byte |= u8::from(f) << i;
            }
            out.put_u8(byte);
        }
        match &self.model {
            Some(model) => {
                let bytes = model.to_bytes();
                out.put_u8(1);
                out.put_u32_le(bytes.len() as u32);
                out.extend_from_slice(&bytes);
            }
            None => out.put_u8(0),
        }
        out
    }

    /// Decodes an OPRF v5 container. Never panics on hostile input: every
    /// count is validated against the bytes actually present before any
    /// allocation, and trailing bytes are rejected. The model is checked
    /// against the width of the interval's feature rows
    /// (`registry(interval).len()`).
    pub fn from_bytes(mut buf: &[u8]) -> Result<SessionSnapshot, SnapshotError> {
        if buf.remaining() < 4 + 2 {
            return Err(SnapshotError::Truncated);
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = buf.get_u16_le();
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        // Fixed-width prefix: interval + 4 f64.
        if buf.remaining() < 4 + 8 * 4 {
            return Err(SnapshotError::Truncated);
        }
        let interval = buf.get_u32_le();
        if !is_supported_interval(interval) {
            return Err(SnapshotError::BadField("interval"));
        }
        let recall = buf.get_f64_le();
        let precision = buf.get_f64_le();
        let cthld_alpha = buf.get_f64_le();
        let fallback_cthld = buf.get_f64_le();
        for (value, name) in [
            (recall, "recall"),
            (precision, "precision"),
            (cthld_alpha, "cthld_alpha"),
            (fallback_cthld, "fallback_cthld"),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(SnapshotError::BadField(name));
            }
        }
        let forest_params = decode_params(&mut buf).map_err(|e| match e {
            PersistError::Truncated => SnapshotError::Truncated,
            PersistError::BadParam(name) => SnapshotError::BadField(name),
            other => SnapshotError::Model(other),
        })?;

        if buf.remaining() < 1 {
            return Err(SnapshotError::Truncated);
        }
        let prediction = match buf.get_u8() {
            0 => None,
            1 => {
                if buf.remaining() < 8 {
                    return Err(SnapshotError::Truncated);
                }
                let c = buf.get_f64_le();
                if !(0.0..=1.0).contains(&c) {
                    return Err(SnapshotError::BadField("prediction"));
                }
                Some(c)
            }
            _ => return Err(SnapshotError::BadField("prediction flag")),
        };

        if buf.remaining() < 8 + 8 + 8 + 8 {
            return Err(SnapshotError::Truncated);
        }
        let n_observed = buf.get_u64_le();
        let wal_seq = buf.get_u64_le();
        let model_version = buf.get_u64_le();
        let n_labels = buf.get_u64_le();
        // A u64 count can claim 2^61 packed bytes; bound it by what is
        // actually in the buffer before allocating anything.
        let packed_len = n_labels.div_ceil(8);
        if packed_len > buf.remaining() as u64 {
            return Err(SnapshotError::Truncated);
        }
        if n_labels > n_observed {
            return Err(SnapshotError::BadField("n_labels"));
        }
        let n_labels = n_labels as usize;
        let mut flags = Vec::with_capacity(n_labels);
        for i in 0..n_labels {
            flags.push(buf[i / 8] >> (i % 8) & 1 == 1);
        }
        buf.advance(packed_len as usize);
        let labels = Labels::from_flags(flags);

        if buf.remaining() < 1 {
            return Err(SnapshotError::Truncated);
        }
        let model = match buf.get_u8() {
            0 => None,
            1 => {
                if buf.remaining() < 4 {
                    return Err(SnapshotError::Truncated);
                }
                let len = buf.get_u32_le() as usize;
                if len > buf.remaining() {
                    return Err(SnapshotError::Truncated);
                }
                let model = CompiledForest::from_bytes(&buf[..len], registry(interval).len())
                    .map_err(SnapshotError::Model)?;
                buf.advance(len);
                Some(model)
            }
            _ => return Err(SnapshotError::BadField("model flag")),
        };

        if buf.has_remaining() {
            return Err(SnapshotError::TrailingBytes(buf.remaining()));
        }
        Ok(SessionSnapshot {
            interval,
            preference: Preference { recall, precision },
            cthld_alpha,
            fallback_cthld,
            forest_params,
            prediction,
            n_observed,
            wal_seq,
            model_version,
            labels,
            model,
        })
    }

    /// Installs the trained state into a pipeline that has already replayed
    /// the WAL prefix this snapshot covers. Verifies that the replayed
    /// configuration and observation/label state agree with what was
    /// snapshotted — a mismatch means the WAL and snapshot are from
    /// different histories.
    /// The decoded model moves into the pipeline as it is.
    pub fn install_into(self, opp: &mut Opprentice) -> Result<(), SnapshotError> {
        if opp.interval() != self.interval {
            return Err(SnapshotError::StateMismatch("interval"));
        }
        if opp.config() != &self.config() {
            return Err(SnapshotError::StateMismatch("config"));
        }
        if opp.observed_len() as u64 != self.n_observed {
            return Err(SnapshotError::StateMismatch("observed point count"));
        }
        if opp.labels() != &self.labels {
            return Err(SnapshotError::StateMismatch("operator labels"));
        }
        opp.restore_trained_state(self.model, self.prediction, self.model_version);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opprentice_timeseries::TimeSeries;

    const INTERVAL: u32 = 3600;

    fn trained_pipeline() -> Opprentice {
        let n = 28 * 24;
        let mut series = TimeSeries::new(0, INTERVAL);
        let mut labels = Labels::all_normal(0);
        for i in 0..n {
            let base = 100.0 + 20.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin();
            let anomalous = i % 63 == 50 || i % 63 == 51;
            series.push(if anomalous { base + 120.0 } else { base });
            labels.push(anomalous);
        }
        let config = OpprenticeConfig {
            forest: RandomForestParams {
                n_trees: 10,
                seed: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut opp = Opprentice::new(INTERVAL, config);
        opp.ingest_history(&series, &labels).unwrap();
        assert!(opp.retrain());
        opp
    }

    #[test]
    fn round_trip_preserves_everything() {
        let opp = trained_pipeline();
        let snap = SessionSnapshot::capture(&opp, 673);
        let bytes = snap.to_bytes();
        let back = SessionSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.wal_seq, 673);
        assert_eq!(back.n_observed, opp.observed_len() as u64);
        assert_eq!(back.model_version, 1);
    }

    /// The container is a stored format: a captured snapshot's bytes follow
    /// the layout in the module docs field for field, params block included.
    #[test]
    fn captured_bytes_follow_the_documented_layout() {
        let config = OpprenticeConfig {
            preference: Preference {
                recall: 0.75,
                precision: 0.5,
            },
            forest: RandomForestParams {
                n_trees: 7,
                max_features: Some(11),
                sample_fraction: 0.5,
                max_depth: None,
                n_bins: Some(32),
                seed: 9,
            },
            cthld_alpha: 0.8,
            fallback_cthld: 0.5,
        };
        let mut opp = Opprentice::new(INTERVAL, config);
        for i in 0..10 {
            opp.observe(i * i64::from(INTERVAL), Some(1.0));
        }
        let flags = vec![true, false, false, true, true, false, false, false, true];
        opp.ingest_labels(&Labels::from_flags(flags)).unwrap();
        opp.restore_trained_state(None, Some(0.25), 3);
        let expected: Vec<u8> = [
            &b"OPRF"[..],
            &5u16.to_le_bytes(),
            &INTERVAL.to_le_bytes(),
            &0.75f64.to_le_bytes(),
            &0.5f64.to_le_bytes(),
            &0.8f64.to_le_bytes(),
            &0.5f64.to_le_bytes(),
            // n_trees, sample_fraction, seed, opt = max_features | n_bins.
            &7u32.to_le_bytes(),
            &0.5f64.to_le_bytes(),
            &9u64.to_le_bytes(),
            &[0b101],
            &11u32.to_le_bytes(),
            &32u32.to_le_bytes(),
            &[1],
            &0.25f64.to_le_bytes(),
            // n_observed, wal_seq, model_version, then 9 packed labels.
            &10u64.to_le_bytes(),
            &12u64.to_le_bytes(),
            &3u64.to_le_bytes(),
            &9u64.to_le_bytes(),
            &[0b0001_1001, 0b1],
            &[0],
        ]
        .concat();
        assert_eq!(SessionSnapshot::capture(&opp, 12).to_bytes(), expected);
    }

    /// A snapshot whose forest params no fit can use is refused, so its
    /// `config()` never reaches a retrain job that would panic on it.
    #[test]
    fn unusable_forest_params_are_rejected() {
        for (n_trees, n_bins, field) in [(0, Some(64), "n_trees"), (10, Some(1), "n_bins")] {
            let config = OpprenticeConfig {
                forest: RandomForestParams {
                    n_trees,
                    n_bins,
                    ..Default::default()
                },
                ..Default::default()
            };
            let opp = Opprentice::new(INTERVAL, config);
            let bytes = SessionSnapshot::capture(&opp, 0).to_bytes();
            assert_eq!(
                SessionSnapshot::from_bytes(&bytes).err(),
                Some(SnapshotError::BadField(field))
            );
        }
    }

    #[test]
    fn untrained_pipeline_round_trips_too() {
        let opp = Opprentice::new(INTERVAL, OpprenticeConfig::default());
        let snap = SessionSnapshot::capture(&opp, 0);
        assert!(snap.model.is_none());
        assert!(snap.prediction.is_none());
        let back = SessionSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn install_restores_identical_scoring() {
        let mut original = trained_pipeline();
        let snap = SessionSnapshot::capture(&original, 0);

        // Rebuild: same config, same observations (as WAL replay would),
        // then install.
        let mut restored = Opprentice::new(INTERVAL, snap.config());
        let n = original.observed_len();
        let mut series = TimeSeries::new(0, INTERVAL);
        let mut labels = Labels::all_normal(0);
        for i in 0..n {
            let base = 100.0 + 20.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin();
            let anomalous = i % 63 == 50 || i % 63 == 51;
            series.push(if anomalous { base + 120.0 } else { base });
            labels.push(anomalous);
        }
        restored.ingest_history(&series, &labels).unwrap();
        snap.install_into(&mut restored).unwrap();

        let t0 = (n as i64) * i64::from(INTERVAL);
        for (i, v) in [100.0, 400.0, 80.0, 250.0].into_iter().enumerate() {
            let ts = t0 + i as i64 * i64::from(INTERVAL);
            assert_eq!(original.observe(ts, Some(v)), restored.observe(ts, Some(v)));
        }
    }

    #[test]
    fn install_rejects_divergent_state() {
        let opp = trained_pipeline();
        let snap = SessionSnapshot::capture(&opp, 0);
        let mut other = Opprentice::new(INTERVAL, snap.config());
        assert_eq!(
            snap.clone().install_into(&mut other),
            Err(SnapshotError::StateMismatch("observed point count"))
        );
        let mut wrong_interval = Opprentice::new(60, snap.config());
        assert_eq!(
            snap.install_into(&mut wrong_interval),
            Err(SnapshotError::StateMismatch("interval"))
        );
    }

    /// The stored configuration is checked too: a snapshot of a 10-tree
    /// session does not install into a 20-tree replay of the same points
    /// and labels, nor into one with another preference or cThld constant.
    #[test]
    fn install_rejects_a_divergent_config() {
        let replay = |config: OpprenticeConfig| {
            let mut opp = Opprentice::new(INTERVAL, config);
            for i in 0..48 {
                opp.observe(i * i64::from(INTERVAL), Some(100.0 + (i % 7) as f64));
            }
            let flags = (0..48).map(|i| i == 30).collect();
            opp.ingest_labels(&Labels::from_flags(flags)).unwrap();
            opp
        };
        let trees = |n_trees| OpprenticeConfig {
            forest: RandomForestParams {
                n_trees,
                ..Default::default()
            },
            ..Default::default()
        };
        let snap = SessionSnapshot::capture(&replay(trees(10)), 0);
        assert_eq!(snap.clone().install_into(&mut replay(trees(10))), Ok(()));
        let divergent = [
            trees(20),
            OpprenticeConfig {
                preference: Preference {
                    recall: 0.9,
                    precision: 0.5,
                },
                ..trees(10)
            },
            OpprenticeConfig {
                cthld_alpha: 0.5,
                ..trees(10)
            },
            OpprenticeConfig {
                fallback_cthld: 0.4,
                ..trees(10)
            },
        ];
        for config in divergent {
            assert_eq!(
                snap.clone().install_into(&mut replay(config)),
                Err(SnapshotError::StateMismatch("config"))
            );
        }
    }

    #[test]
    fn model_files_and_v4_snapshots_are_rejected() {
        // Model files (OPRF v6) and session containers (OPRF v5) share
        // the magic; the version field keeps them mutually rejecting.
        let opp = trained_pipeline();
        let model_bytes = opp.compiled_forest().unwrap().to_bytes();
        assert_eq!(
            SessionSnapshot::from_bytes(&model_bytes),
            Err(SnapshotError::UnsupportedVersion(6))
        );
        // A v4 container carried the training-time forest; it has no reader.
        let mut v4 = SessionSnapshot::capture(&opp, 0).to_bytes();
        v4[4..6].copy_from_slice(&4u16.to_le_bytes());
        assert_eq!(
            SessionSnapshot::from_bytes(&v4),
            Err(SnapshotError::UnsupportedVersion(4))
        );
    }

    /// The bytes of an untrained 1-minute session whose model block is
    /// replaced by a one-tree model of `nodes` (`(feature, value)` pairs).
    fn snapshot_with_model(nodes: &[(u32, f64)]) -> Vec<u8> {
        let opp = Opprentice::new(60, OpprenticeConfig::default());
        let mut bytes = SessionSnapshot::capture(&opp, 0).to_bytes();
        assert_eq!(bytes.pop(), Some(0), "untrained: no model block");
        let mut model = b"OPRF".to_vec();
        model.put_u16_le(6);
        model.put_u32_le(1);
        model.put_u32_le(nodes.len() as u32);
        for &(feature, value) in nodes {
            model.put_u32_le(feature);
            model.put_f64_le(value);
        }
        bytes.put_u8(1);
        bytes.put_u32_le(model.len() as u32);
        bytes.extend_from_slice(&model);
        bytes
    }

    /// A model that could not serve is refused at decode: a tree whose
    /// root would be its own child (the tree-walk compile of such a file
    /// allocated without bound), a split whose children run past its
    /// tree, and a split on a feature past the 133 a 1-minute row holds
    /// (which indexed out of bounds on the first served row).
    #[test]
    fn models_that_cannot_serve_are_refused() {
        const LEAF: u32 = u32::MAX;
        let decode =
            |nodes: &[(u32, f64)]| SessionSnapshot::from_bytes(&snapshot_with_model(nodes));
        for nodes in [
            &[(LEAF, 1.0), (0, 0.5), (LEAF, 0.0)][..],
            &[(0, 0.5)],
            &[(0, 0.5), (LEAF, 1.0)],
        ] {
            assert_eq!(
                decode(nodes),
                Err(SnapshotError::Model(PersistError::BadModel(
                    "tree splits do not close"
                ))),
                "{nodes:?}"
            );
        }
        let split_on = |feature| [(feature, 0.5), (LEAF, 0.0), (LEAF, 1.0)];
        let width = registry(60).len() as u32;
        assert_eq!(width, 133);
        for feature in [width, 1_000_000] {
            assert_eq!(
                decode(&split_on(feature)),
                Err(SnapshotError::Model(PersistError::BadModel(
                    "split feature past the row width"
                ))),
                "{feature}"
            );
        }
        let served = decode(&split_on(width - 1)).unwrap().model.unwrap();
        assert_eq!(served.predict(&[1.0; 133]), 1.0);
    }

    /// Intervals no session can have are refused before the row width is
    /// looked up for them.
    #[test]
    fn unsupported_intervals_are_rejected() {
        let mut bytes = snapshot_with_model(&[(u32::MAX, 0.5)]);
        for interval in [0u32, 7, 86_400] {
            bytes[6..10].copy_from_slice(&interval.to_le_bytes());
            assert_eq!(
                SessionSnapshot::from_bytes(&bytes),
                Err(SnapshotError::BadField("interval")),
                "{interval}"
            );
        }
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        let opp = trained_pipeline();
        let bytes = SessionSnapshot::capture(&opp, 42).to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                SessionSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "prefix {cut} accepted"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let opp = trained_pipeline();
        let mut bytes = SessionSnapshot::capture(&opp, 42).to_bytes();
        bytes.push(0);
        assert_eq!(
            SessionSnapshot::from_bytes(&bytes),
            Err(SnapshotError::TrailingBytes(1))
        );
    }

    #[test]
    fn hostile_label_count_cannot_allocate() {
        let opp = Opprentice::new(INTERVAL, OpprenticeConfig::default());
        let mut bytes = SessionSnapshot::capture(&opp, 0).to_bytes();
        // n_labels sits right before the forest flag at the end: layout ends
        // … wal_seq u64 | model_version u64 | n_labels u64 | forest u8.
        let n = bytes.len();
        bytes[n - 9..n - 1].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(SessionSnapshot::from_bytes(&bytes).is_err());
    }
}
