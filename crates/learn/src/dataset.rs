//! The training/test set container: a dense feature matrix with binary
//! labels. Rows are data points (§4.3.1: Opprentice trains and classifies
//! individual points, not windows), columns are detector configurations.

/// A dense, row-major supervised dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    n_features: usize,
    features: Vec<f64>,
    labels: Vec<bool>,
}

impl Dataset {
    /// Creates an empty dataset with `n_features` columns.
    ///
    /// # Panics
    ///
    /// Panics if `n_features == 0`.
    pub fn new(n_features: usize) -> Self {
        assert!(n_features > 0, "need at least one feature");
        Self {
            n_features,
            features: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Builds a dataset from row-major features and labels.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or non-finite features.
    pub fn from_rows(n_features: usize, features: Vec<f64>, labels: Vec<bool>) -> Self {
        assert!(n_features > 0, "need at least one feature");
        assert_eq!(features.len(), labels.len() * n_features, "shape mismatch");
        assert!(features.iter().all(|f| f.is_finite()), "non-finite feature");
        Self {
            n_features,
            features,
            labels,
        }
    }

    /// Appends one sample.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != n_features` or a feature is not finite.
    pub fn push(&mut self, row: &[f64], label: bool) {
        assert_eq!(row.len(), self.n_features, "feature count mismatch");
        assert!(row.iter().all(|f| f.is_finite()), "non-finite feature");
        self.features.extend_from_slice(row);
        self.labels.push(label);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when no samples are present.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The feature row of sample `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.features[i * self.n_features..(i + 1) * self.n_features]
    }

    /// The label of sample `i`.
    pub fn label(&self, i: usize) -> bool {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// Count of anomalous samples.
    pub fn positives(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// A new dataset holding the given rows (by index, order preserved).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset::new(self.n_features);
        for &i in indices {
            out.push(self.row(i), self.label(i));
        }
        out
    }

    /// A new dataset with only the selected feature columns (in the given
    /// order) — used by the Fig. 10 incremental-features experiment.
    pub fn select_features(&self, columns: &[usize]) -> Dataset {
        assert!(!columns.is_empty(), "need at least one column");
        assert!(
            columns.iter().all(|&c| c < self.n_features),
            "column out of range"
        );
        let mut features = Vec::with_capacity(self.len() * columns.len());
        for i in 0..self.len() {
            let row = self.row(i);
            features.extend(columns.iter().map(|&c| row[c]));
        }
        Dataset {
            n_features: columns.len(),
            features,
            labels: self.labels.clone(),
        }
    }

    /// Concatenates another dataset's samples after this one's.
    ///
    /// # Panics
    ///
    /// Panics if the feature counts differ.
    pub fn extend(&mut self, other: &Dataset) {
        assert_eq!(self.n_features, other.n_features, "feature count mismatch");
        self.features.extend_from_slice(&other.features);
        self.labels.extend_from_slice(&other.labels);
    }

    /// Column `c` copied out.
    pub fn column(&self, c: usize) -> Vec<f64> {
        (0..self.len()).map(|i| self.row(i)[c]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new(2);
        d.push(&[1.0, 10.0], false);
        d.push(&[2.0, 20.0], true);
        d.push(&[3.0, 30.0], false);
        d
    }

    #[test]
    fn push_and_access() {
        let d = toy();
        assert_eq!(d.len(), 3);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.row(1), &[2.0, 20.0]);
        assert!(d.label(1));
        assert_eq!(d.positives(), 1);
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn wrong_width_rejected() {
        let mut d = Dataset::new(2);
        d.push(&[1.0], false);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_rejected() {
        let mut d = Dataset::new(1);
        d.push(&[f64::NAN], false);
    }

    #[test]
    fn subset_preserves_rows() {
        let d = toy();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0), &[3.0, 30.0]);
        assert_eq!(s.row(1), &[1.0, 10.0]);
    }

    #[test]
    fn select_features_projects_columns() {
        let d = toy();
        let p = d.select_features(&[1]);
        assert_eq!(p.n_features(), 1);
        assert_eq!(p.row(2), &[30.0]);
        assert_eq!(p.labels(), d.labels());
    }

    #[test]
    fn extend_concatenates() {
        let mut d = toy();
        let e = toy();
        d.extend(&e);
        assert_eq!(d.len(), 6);
        assert_eq!(d.row(5), &[3.0, 30.0]);
    }

    #[test]
    fn column_extraction() {
        let d = toy();
        assert_eq!(d.column(1), vec![10.0, 20.0, 30.0]);
    }
}
