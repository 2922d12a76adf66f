//! The paper-size model and the inputs every workload shares.
//!
//! Set-up is the path a deployment takes before its first answer: data
//! generation, exact labelling, `fit_partitioned`, a snapshot save and
//! load, and engine start up to the first served estimate. It is a pure
//! function of the model seed, so every repetition does the same work.

use crate::oracle::Oracle;
use selnet_core::{fit_partitioned, PartitionConfig, PartitionedSelNet, SelNetConfig};
use selnet_data::generators::{fasttext_like, GeneratorConfig};
use selnet_data::Dataset;
use selnet_metric::DistanceKind;
use selnet_workload::{generate_workload, selectivity_ladder, Workload, WorkloadConfig};
use std::time::Instant;

/// Records in the database (`|D|`).
pub const RECORDS: usize = 20_000;
/// Dimensionality.
pub const DIM: usize = 24;
/// Mixture components of the fasttext-like generator.
pub const CLUSTERS: usize = 16;
/// Labelled query objects (80:10:10 train/valid/test).
pub const QUERIES: usize = 500;
/// Ladder rungs per labelled query (Appendix B.1 thresholds).
pub const RUNGS: usize = 20;
/// Joint-training epochs of the §5.3 fit.
pub const EPOCHS: usize = 4;
/// Local pretraining epochs (`T` of §5.3).
pub const PRETRAIN_EPOCHS: usize = 2;
/// Autoencoder pretraining epochs.
pub const AE_EPOCHS: usize = 2;
/// Fresh draws from the data's mixture that request objects come from;
/// none of them is a database record.
pub const FRESH: usize = 8_192;
/// The distance every workload queries under.
pub const KIND: DistanceKind = DistanceKind::Cosine;
/// Tenant name the model is served under.
pub const TENANT: &str = "paper";

/// The model's hyper-parameters: the crate defaults (`L = 50`, the
/// paper's layer structure scaled for CPU) with a fixed training budget.
pub fn model_config(model_seed: u64) -> (SelNetConfig, PartitionConfig) {
    let scfg = SelNetConfig {
        epochs: EPOCHS,
        ae_pretrain_epochs: AE_EPOCHS,
        seed: model_seed,
        ..Default::default()
    };
    let pcfg = PartitionConfig {
        pretrain_epochs: PRETRAIN_EPOCHS,
        ..Default::default()
    };
    (scfg, pcfg)
}

/// Wall times of one set-up's stages.
#[derive(Clone, Debug, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub label_s: f64,
    pub fit_s: f64,
    pub save_ms: f64,
    pub load_ms: f64,
}

/// Everything set-up produces.
pub struct Built {
    /// The database.
    pub ds: Dataset,
    /// Fresh mixture draws, never in `ds`.
    pub fresh: Dataset,
    /// The labelled workload the model was trained on.
    pub workload: Workload,
    /// The model as loaded back from its snapshot.
    pub model: PartitionedSelNet,
    /// The snapshot bytes (compared across repetitions).
    pub snapshot: Vec<u8>,
    pub times: SetupTimes,
}

/// Builds the paper-size model from `model_seed`.
pub fn build(model_seed: u64) -> Built {
    let mut times = SetupTimes::default();

    let started = Instant::now();
    // one generator stream: the first RECORDS draws are the database, the
    // rest are fresh draws from the same mixture
    let all = fasttext_like(&GeneratorConfig::new(
        RECORDS + FRESH,
        DIM,
        CLUSTERS,
        model_seed,
    ));
    let ds = Dataset::from_flat(DIM, all.flat()[..RECORDS * DIM].to_vec());
    let fresh = Dataset::from_flat(DIM, all.flat()[RECORDS * DIM..].to_vec());
    times.generate_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut wcfg = WorkloadConfig::new(QUERIES, KIND, model_seed ^ 0x5eed);
    wcfg.thresholds_per_query = RUNGS;
    wcfg.threads = 1;
    let workload = generate_workload(&ds, &wcfg);
    times.label_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let (scfg, pcfg) = model_config(model_seed);
    let (trained, _report) = fit_partitioned(&ds, &workload, &scfg, &pcfg);
    times.fit_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut snapshot = Vec::new();
    trained
        .save(&mut snapshot)
        .expect("writing a snapshot into memory cannot fail");
    times.save_ms = started.elapsed().as_secs_f64() * 1e3;

    let started = Instant::now();
    let model = PartitionedSelNet::load(&mut snapshot.as_slice()).expect("snapshot round-trips");
    times.load_ms = started.elapsed().as_secs_f64() * 1e3;

    Built {
        ds,
        fresh,
        workload,
        model,
        snapshot,
        times,
    }
}

/// Selectivity ranks of the Appendix B.1 ladder over `|D|`, as integers.
pub fn ladder_ranks(records: usize, rungs: usize) -> Vec<usize> {
    selectivity_ladder(records, rungs)
        .into_iter()
        .map(|s| (s.ceil() as usize).clamp(1, records))
        .collect()
}

/// Cross-checks the generator's labels against the oracle: every test
/// query and every eighth training query, at every rung. Returns the
/// number of labels that disagree.
pub fn check_labels(oracle: &Oracle, workload: &Workload) -> usize {
    workload
        .test
        .iter()
        .chain(workload.train.iter().step_by(8))
        .map(|q| oracle.mismatches(&q.x, &q.thresholds, &q.selectivities))
        .sum()
}
