//! Ω bit pins: the exact `f64` bits every indicator the server can plan with
//! assigns to every adjustable operator of the zoo.
//!
//! Ω feeds the allocator's recovery order and the indicator totals a plan
//! reports, so a change that re-associates one term of Proposition 2 moves
//! plans. This test catches that before the plan digests do: for each of the
//! seven zoo families the plan-digest corpus uses (at batch 1 and 8), it folds
//! `omega(..).to_bits()` for every adjustable op × `PAPER_CANDIDATES` into one
//! fingerprint per (family, indicator). Statistics are
//! `ModelStatistics::synthetic` at the default system seed, as a server plans
//! with them.
//!
//! A change that moves Ω on purpose edits the literals: on a mismatch this
//! test names the moved cases and prints every fingerprint the build produces.

use qsync_core::indicator::{HessianIndicator, ModelStatistics, SensitivityIndicator, VarianceIndicator};
use qsync_core::system::QSyncConfig;
use qsync_graph::models::{bert_base, resnet50, roberta_base, small_cnn, small_mlp, vgg16, vgg16bn};
use qsync_graph::{Fingerprint, ModelDag};
use qsync_lp_kernels::precision::Precision;

/// The seven zoo families at the plan-digest corpus's sizes.
fn family(name: &str, batch: usize) -> ModelDag {
    match name {
        "mlp" => small_mlp(batch, 16, 32, 8),
        "cnn" => small_cnn(batch, 8, 10),
        "resnet50" => resnet50(batch, 32),
        "vgg16" => vgg16(batch, 32),
        "vgg16bn" => vgg16bn(batch, 32),
        "bert" => bert_base(batch, 8),
        "roberta" => roberta_base(batch, 8),
        other => panic!("unknown family {other}"),
    }
}

/// `(family, indicator, fingerprint)` as committed.
const PINNED: [(&str, &str, &str); 14] = [
    ("mlp", "qsync", "a78c3119183d53b85b8e66ecc09a41d0"),
    ("mlp", "hessian", "79480a742d6350184eff99d3d3b74b8d"),
    ("cnn", "qsync", "a19974c3d5d949c514b84fe3ee056671"),
    ("cnn", "hessian", "6c98b5b2781596406b3c8e2e7b138c61"),
    ("resnet50", "qsync", "1f2edf4efcd7a921a9ec068de42b76e9"),
    ("resnet50", "hessian", "e61a60f8fc2c52b8c2ebe419d117e495"),
    ("vgg16", "qsync", "ccca59c745ad0958771aa77e7f5e28e9"),
    ("vgg16", "hessian", "c2952d3cd13fe8484c64b464d81c583d"),
    ("vgg16bn", "qsync", "87aafe9b94af323127cad77571fc3017"),
    ("vgg16bn", "hessian", "2128edb2498e24c854adeee530782195"),
    ("bert", "qsync", "04b4a810d00cc683f7418e7071036bcd"),
    ("bert", "hessian", "b30217dcdae538a4dbd13f9f76105175"),
    ("roberta", "qsync", "5849601cc37d9a03080a278420f526be"),
    ("roberta", "hessian", "dc240dfa264488c8cd4e151e98106dd1"),
];

fn omega_fingerprint(name: &str, indicator: &str) -> String {
    let mut fp = Fingerprint::new();
    for batch in [1, 8] {
        let dag = family(name, batch);
        let stats = ModelStatistics::synthetic(&dag, QSyncConfig::default().seed);
        let ind: Box<dyn SensitivityIndicator> = match indicator {
            "qsync" => Box::new(VarianceIndicator::new(stats)),
            "hessian" => Box::new(HessianIndicator { stats }),
            other => panic!("unknown indicator {other}"),
        };
        for id in dag.adjustable_ops() {
            for p in Precision::PAPER_CANDIDATES {
                fp.write_u64(ind.omega(&dag, id, p).to_bits());
            }
        }
    }
    fp.finish_hex()
}

#[test]
fn omega_bits_match_the_committed_fingerprints() {
    let produced: Vec<(&str, &str, String)> =
        PINNED.iter().map(|&(name, ind, _)| (name, ind, omega_fingerprint(name, ind))).collect();
    let moved: Vec<String> = PINNED
        .iter()
        .zip(&produced)
        .filter(|((_, _, want), (_, _, got))| want != got)
        .map(|((name, ind, _), _)| format!("{name}/{ind}"))
        .collect();
    if !moved.is_empty() {
        let table: String = produced
            .iter()
            .map(|(name, ind, got)| format!("    ({name:?}, {ind:?}, {got:?}),\n"))
            .collect();
        panic!("Ω moved for {}; this build produces:\n{table}", moved.join(", "));
    }
}
