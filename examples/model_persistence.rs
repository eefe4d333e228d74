//! Operational concern: surviving a restart. A deployed Opprentice retrains
//! weekly, but the process should not lose its classifier between restarts.
//! This example trains a forest, compiles it into the serving model, saves
//! that to the compact binary format, reloads it, and verifies the restored
//! model scores identically to the trained forest.
//!
//! Run: `cargo run --release --example model_persistence`

use opprentice_repro::datagen::{presets, SimulatedOperator};
use opprentice_repro::learn::{Classifier, CompiledForest, RandomForest, RandomForestParams};
use opprentice_repro::opprentice::extract_features;

fn main() {
    let mut spec = presets::srt();
    spec.weeks = 8;
    let kpi = spec.generate();
    let session = SimulatedOperator::default().label(&kpi);
    let matrix = extract_features(&kpi.series);
    let (train, _) = matrix.dataset(&session.labels, 0..matrix.len());

    let mut forest = RandomForest::new(RandomForestParams {
        n_trees: 40,
        ..Default::default()
    });
    forest.fit(&train);

    // Save the serving model; the training-time forest is not stored.
    let bytes = forest.compile().to_bytes();
    let path = std::env::temp_dir().join("opprentice_model.bin");
    std::fs::write(&path, &bytes).expect("write model");
    println!(
        "saved {} trees ({} bytes) to {}",
        forest.tree_count(),
        bytes.len(),
        path.display()
    );

    // Restore (e.g. after a crash or deploy), for rows of this width.
    let restored_bytes = std::fs::read(&path).expect("read model");
    let restored =
        CompiledForest::from_bytes(&restored_bytes, train.n_features()).expect("valid model file");
    println!(
        "restored {} trees, {} nodes",
        restored.tree_count(),
        restored.node_count()
    );

    // Identical verdicts, point for point.
    let mut checked = 0usize;
    for i in (0..matrix.len()).step_by(7) {
        assert_eq!(
            forest.score(matrix.row(i)).to_bits(),
            restored.predict(matrix.row(i)).to_bits(),
            "row {i}"
        );
        checked += 1;
    }
    println!("verified {checked} scores identical — safe to resume detection immediately");
    std::fs::remove_file(&path).ok();
}
