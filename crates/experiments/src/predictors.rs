//! Factory for every memory dependence predictor the experiments use.

use phast::{Phast, PhastConfig, UnlimitedPhast};
use phast_baselines::{
    Cht, ChtConfig, MdpTage, MdpTageConfig, NoSqConfig, NoSqPredictor, StoreSets, StoreSetsConfig,
    StoreVector, StoreVectorConfig, UnlimitedMdpTage, UnlimitedNoSq,
};
use phast_isa::Program;
use phast_mdp::{BlindSpeculation, DepOracle, MemDepPredictor, OraclePredictor, TotalOrder};
use phast_ooo::TrainPoint;
use std::sync::Arc;

/// Instructions past the budget the ideal oracle covers: the pipeline
/// commits up to a commit-group beyond the budget and fetches further
/// still, so the oracle answers for a comfortable margin past it.
pub const ORACLE_MARGIN: u64 = 50_000;

/// Youngest stores the ideal oracle tracks per load: at least the store
/// buffer of every configured core.
pub const ORACLE_WINDOW: usize = 512;

/// Builds the ideal predictor's dependence oracle for a run of `max_insts`
/// instructions. Every ideal run over the same program and horizon can
/// share the result.
pub fn ideal_oracle(program: &Program, max_insts: u64) -> Arc<DepOracle> {
    let oracle = DepOracle::build(program, max_insts + ORACLE_MARGIN, ORACLE_WINDOW)
        .expect("workloads emulate cleanly");
    Arc::new(oracle)
}

/// Identifies a predictor configuration used by the experiments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PredictorKind {
    /// Perfect oracle (upper bound for every figure).
    Ideal,
    /// No prediction at all: every load speculates.
    Blind,
    /// Every load waits for all older stores.
    TotalOrder,
    /// PHAST at the paper's 14.5 KB configuration.
    Phast,
    /// PHAST scaled to `sets` sets per table (Fig. 13 sweep).
    PhastSets(usize),
    /// PHAST keyed with plain L-entry histories instead of the N+1 rule
    /// (§IV-A2 ablation).
    PhastNoNPlusOne,
    /// PHAST trained when a violation is detected instead of at commit
    /// (§IV-A1 ablation).
    PhastAtDetect,
    /// PHAST with an `n`-bit confidence counter instead of 4 bits
    /// (ablation; `n` in 1..=7).
    PhastConfidence(u32),
    /// PHAST with TAGE's branch-prediction history lengths instead of
    /// its MDP-tuned set (§IV-B ablation).
    PhastTageLengths,
    /// UnlimitedPHAST, optionally capped at a maximum history length.
    UnlimitedPhast(Option<u32>),
    /// NoSQ at the paper's 19 KB configuration.
    NoSq,
    /// NoSQ scaled to `sets` sets per table.
    NoSqSets(usize),
    /// UnlimitedNoSQ at a fixed history length (Fig. 6 x-axis).
    UnlimitedNoSq(u32),
    /// Store Sets at the paper's 18.5 KB configuration.
    StoreSets,
    /// Store Sets with explicit SSIT/LFST entry counts.
    StoreSetsSized(usize, usize),
    /// Store Vectors.
    StoreVector,
    /// CHT collision predictor.
    Cht,
    /// MDP-TAGE at the paper's 38.625 KB configuration.
    MdpTage,
    /// MDP-TAGE with all component set counts scaled by `num/den`.
    MdpTageScaled(usize, usize),
    /// MDP-TAGE-S (PHAST table layout, 13 KB).
    MdpTageS,
    /// UnlimitedMDPTAGE.
    UnlimitedMdpTage,
    /// Zero-storage static baseline from `phast-trace`'s dependence
    /// analysis: loads wait only on statically proven conflicting stores.
    StaticDeps,
}

/// Every [`PredictorKind`], a parameterised kind at a representative
/// value, with the description `phast-experiments --list-predictors`
/// prints next to its label.
pub const CATALOG: &[(PredictorKind, &str)] = &[
    (PredictorKind::Ideal, "perfect oracle (upper bound for every figure)"),
    (PredictorKind::Blind, "no prediction: every load speculates"),
    (PredictorKind::TotalOrder, "every load waits for all older stores"),
    (PredictorKind::Phast, "PHAST at the paper's 14.5 KB configuration"),
    (PredictorKind::PhastSets(64), "PHAST scaled to N sets per table (Fig. 13 sweep)"),
    (PredictorKind::PhastNoNPlusOne, "PHAST without the N+1 history rule (ablation)"),
    (PredictorKind::PhastAtDetect, "PHAST trained at detection, not commit (ablation)"),
    (PredictorKind::PhastConfidence(2), "PHAST with N-bit confidence, N in 1..=7 (ablation)"),
    (PredictorKind::PhastTageLengths, "PHAST with TAGE's history lengths (ablation)"),
    (PredictorKind::UnlimitedPhast(None), "UnlimitedPHAST"),
    (PredictorKind::UnlimitedPhast(Some(16)), "UnlimitedPHAST capped at history length N"),
    (PredictorKind::NoSq, "NoSQ at the paper's 19 KB configuration"),
    (PredictorKind::NoSqSets(256), "NoSQ scaled to N sets per table"),
    (PredictorKind::UnlimitedNoSq(8), "UnlimitedNoSQ at a fixed history length"),
    (PredictorKind::StoreSets, "Store Sets at the paper's 18.5 KB configuration"),
    (PredictorKind::StoreSetsSized(4096, 2048), "Store Sets with explicit SSIT/LFST sizes"),
    (PredictorKind::StoreVector, "Store Vectors"),
    (PredictorKind::Cht, "CHT collision predictor"),
    (PredictorKind::MdpTage, "MDP-TAGE at the paper's 38.625 KB configuration"),
    (PredictorKind::MdpTageScaled(1, 2), "MDP-TAGE with set counts scaled by num/den"),
    (PredictorKind::MdpTageS, "MDP-TAGE-S (PHAST table layout, 13 KB)"),
    (PredictorKind::UnlimitedMdpTage, "UnlimitedMDPTAGE"),
    (
        PredictorKind::StaticDeps,
        "zero-storage static baseline from phast-trace's dependence analysis",
    ),
];

impl PredictorKind {
    /// Short display name used in experiment output.
    pub fn label(&self) -> String {
        match self {
            PredictorKind::Ideal => "ideal".into(),
            PredictorKind::Blind => "blind".into(),
            PredictorKind::TotalOrder => "total-order".into(),
            PredictorKind::Phast => "phast".into(),
            PredictorKind::PhastSets(s) => format!("phast-{s}s"),
            PredictorKind::PhastNoNPlusOne => "phast-no-n1".into(),
            PredictorKind::PhastAtDetect => "phast-at-detect".into(),
            PredictorKind::PhastConfidence(n) => format!("phast-conf{n}"),
            PredictorKind::PhastTageLengths => "phast-tage-lengths".into(),
            PredictorKind::UnlimitedPhast(None) => "unl-phast".into(),
            PredictorKind::UnlimitedPhast(Some(m)) => format!("unl-phast-{m}"),
            PredictorKind::NoSq => "nosq".into(),
            PredictorKind::NoSqSets(s) => format!("nosq-{s}s"),
            PredictorKind::UnlimitedNoSq(h) => format!("unl-nosq-{h}"),
            PredictorKind::StoreSets => "store-sets".into(),
            PredictorKind::StoreSetsSized(a, b) => format!("store-sets-{a}-{b}"),
            PredictorKind::StoreVector => "store-vector".into(),
            PredictorKind::Cht => "cht".into(),
            PredictorKind::MdpTage => "mdp-tage".into(),
            PredictorKind::MdpTageScaled(n, d) => format!("mdp-tage-{n}of{d}"),
            PredictorKind::MdpTageS => "mdp-tage-s".into(),
            PredictorKind::UnlimitedMdpTage => "unl-mdp-tage".into(),
            PredictorKind::StaticDeps => "static-deps".into(),
        }
    }

    /// Inverse of [`label`](Self::label): parses a predictor name as it
    /// appears in experiment output, artifacts, and `phast-serve` submit
    /// requests. Total over arbitrary input — unknown or malformed labels
    /// are `None`, never a panic (this sits on a protocol boundary).
    pub fn from_label(label: &str) -> Option<PredictorKind> {
        // Fixed names first; the longest-prefix parameterized forms after,
        // so "mdp-tage-s" is not misread as a scaled MDP-TAGE.
        match label {
            "ideal" => return Some(PredictorKind::Ideal),
            "blind" => return Some(PredictorKind::Blind),
            "total-order" => return Some(PredictorKind::TotalOrder),
            "phast" => return Some(PredictorKind::Phast),
            "phast-no-n1" => return Some(PredictorKind::PhastNoNPlusOne),
            "phast-at-detect" => return Some(PredictorKind::PhastAtDetect),
            "phast-tage-lengths" => return Some(PredictorKind::PhastTageLengths),
            "unl-phast" => return Some(PredictorKind::UnlimitedPhast(None)),
            "nosq" => return Some(PredictorKind::NoSq),
            "store-sets" => return Some(PredictorKind::StoreSets),
            "store-vector" => return Some(PredictorKind::StoreVector),
            "cht" => return Some(PredictorKind::Cht),
            "mdp-tage" => return Some(PredictorKind::MdpTage),
            "mdp-tage-s" => return Some(PredictorKind::MdpTageS),
            "unl-mdp-tage" => return Some(PredictorKind::UnlimitedMdpTage),
            "static-deps" => return Some(PredictorKind::StaticDeps),
            _ => {}
        }
        let num = |s: &str| s.parse::<usize>().ok().filter(|n| *n > 0);
        if let Some(rest) = label.strip_prefix("phast-conf") {
            let bits = rest.parse::<u32>().ok().filter(|n| (1..=7).contains(n))?;
            return Some(PredictorKind::PhastConfidence(bits));
        }
        if let Some(rest) = label.strip_prefix("phast-").and_then(|r| r.strip_suffix('s')) {
            return Some(PredictorKind::PhastSets(num(rest)?));
        }
        if let Some(rest) = label.strip_prefix("unl-phast-") {
            return Some(PredictorKind::UnlimitedPhast(Some(rest.parse().ok()?)));
        }
        if let Some(rest) = label.strip_prefix("nosq-").and_then(|r| r.strip_suffix('s')) {
            return Some(PredictorKind::NoSqSets(num(rest)?));
        }
        if let Some(rest) = label.strip_prefix("unl-nosq-") {
            return Some(PredictorKind::UnlimitedNoSq(rest.parse().ok()?));
        }
        if let Some(rest) = label.strip_prefix("store-sets-") {
            let (a, b) = rest.split_once('-')?;
            return Some(PredictorKind::StoreSetsSized(num(a)?, num(b)?));
        }
        if let Some(rest) = label.strip_prefix("mdp-tage-") {
            let (n, d) = rest.split_once("of")?;
            return Some(PredictorKind::MdpTageScaled(num(n)?, num(d)?));
        }
        None
    }

    /// The five limited predictors of the headline comparison
    /// (Figs. 13–16), in the paper's order.
    pub fn headline() -> Vec<PredictorKind> {
        vec![
            PredictorKind::StoreSets,
            PredictorKind::NoSq,
            PredictorKind::MdpTage,
            PredictorKind::MdpTageS,
            PredictorKind::Phast,
        ]
    }

    /// When the out-of-order core should train this predictor: PHAST
    /// variants at commit (except the train-at-detect ablation),
    /// everything else at detection (§IV-A1 and §V).
    pub fn train_point(&self) -> TrainPoint {
        match self {
            PredictorKind::Phast
            | PredictorKind::PhastSets(_)
            | PredictorKind::PhastNoNPlusOne
            | PredictorKind::PhastConfidence(_)
            | PredictorKind::PhastTageLengths
            | PredictorKind::UnlimitedPhast(_) => TrainPoint::Commit,
            _ => TrainPoint::Detect,
        }
    }

    /// Builds the predictor. The oracle needs the program (and budget) to
    /// precompute perfect dependences.
    pub fn build(&self, program: &Program, max_insts: u64) -> Box<dyn MemDepPredictor> {
        self.build_sharing(program, max_insts, None)
    }

    /// [`build`](Self::build), except that the ideal predictor answers
    /// from `oracle` when one is given — [`ideal_oracle`] over the same
    /// program and `max_insts` — instead of building its own.
    pub fn build_sharing(
        &self,
        program: &Program,
        max_insts: u64,
        oracle: Option<&Arc<DepOracle>>,
    ) -> Box<dyn MemDepPredictor> {
        match self {
            PredictorKind::Ideal => Box::new(OraclePredictor::new(match oracle {
                Some(shared) => Arc::clone(shared),
                None => ideal_oracle(program, max_insts),
            })),
            PredictorKind::Blind => Box::new(BlindSpeculation),
            PredictorKind::TotalOrder => Box::new(TotalOrder),
            PredictorKind::Phast => Box::new(Phast::new(PhastConfig::paper())),
            PredictorKind::PhastSets(s) => Box::new(Phast::new(PhastConfig::with_sets(*s))),
            PredictorKind::PhastNoNPlusOne => {
                Box::new(Phast::new(PhastConfig::without_n_plus_one()))
            }
            PredictorKind::PhastAtDetect => Box::new(Phast::new(PhastConfig::paper())),
            PredictorKind::PhastConfidence(n) => {
                Box::new(Phast::new(PhastConfig::with_confidence_bits(*n)))
            }
            PredictorKind::PhastTageLengths => Box::new(Phast::new(PhastConfig {
                history_lengths: vec![2, 4, 8, 16, 32, 64, 96, 128],
                ..PhastConfig::paper()
            })),
            PredictorKind::UnlimitedPhast(max) => Box::new(UnlimitedPhast::with_max_length(*max)),
            PredictorKind::NoSq => Box::new(NoSqPredictor::new(NoSqConfig::paper())),
            PredictorKind::NoSqSets(s) => Box::new(NoSqPredictor::new(NoSqConfig::with_sets(*s))),
            PredictorKind::UnlimitedNoSq(h) => Box::new(UnlimitedNoSq::new(*h)),
            PredictorKind::StoreSets => Box::new(StoreSets::new(StoreSetsConfig::paper())),
            PredictorKind::StoreSetsSized(ssit, lfst) => {
                Box::new(StoreSets::new(StoreSetsConfig::with_entries(*ssit, *lfst)))
            }
            PredictorKind::StoreVector => Box::new(StoreVector::new(StoreVectorConfig::paper())),
            PredictorKind::Cht => Box::new(Cht::new(ChtConfig::paper())),
            PredictorKind::MdpTage => Box::new(MdpTage::new(MdpTageConfig::paper())),
            PredictorKind::MdpTageScaled(n, d) => {
                Box::new(MdpTage::new(MdpTageConfig::paper_scaled(*n, *d)))
            }
            PredictorKind::MdpTageS => Box::new(MdpTage::new(MdpTageConfig::short())),
            PredictorKind::UnlimitedMdpTage => Box::new(UnlimitedMdpTage::new()),
            PredictorKind::StaticDeps => Box::new(phast_trace::StaticDeps::build(program)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_isa::{ProgramBuilder, Reg};

    fn tiny_program() -> Program {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.at(e).li(Reg(1), 1).halt();
        b.set_entry(e);
        b.build().unwrap()
    }

    #[test]
    fn every_kind_builds() {
        let p = tiny_program();
        for (k, _) in CATALOG {
            let pred = k.build(&p, 100);
            assert!(!pred.name().is_empty(), "{:?}", k);
            assert!(!k.label().is_empty());
        }
    }

    #[test]
    fn phast_trains_at_commit_baselines_at_detect() {
        assert_eq!(PredictorKind::Phast.train_point(), TrainPoint::Commit);
        assert_eq!(PredictorKind::UnlimitedPhast(None).train_point(), TrainPoint::Commit);
        assert_eq!(PredictorKind::PhastAtDetect.train_point(), TrainPoint::Detect);
        assert_eq!(PredictorKind::NoSq.train_point(), TrainPoint::Detect);
        assert_eq!(PredictorKind::StoreSets.train_point(), TrainPoint::Detect);
    }

    #[test]
    fn headline_has_five_predictors() {
        assert_eq!(PredictorKind::headline().len(), 5);
    }

    #[test]
    fn from_label_inverts_label_for_every_kind() {
        for (kind, _) in CATALOG {
            let label = kind.label();
            assert_eq!(PredictorKind::from_label(&label).as_ref(), Some(kind), "{label}");
        }
    }

    #[test]
    fn from_label_rejects_garbage_without_panicking() {
        for bad in ["", "phastx", "phast-s", "phast-0s", "phast-conf", "phast-conf0", "nosq-s",
                    "store-sets-4096", "mdp-tage-0of2", "unl-nosq-", "unl-phast-x", "PHAST",
                    "blind "] {
            assert_eq!(PredictorKind::from_label(bad), None, "{bad}");
        }
    }

    #[test]
    fn paper_storage_budgets_match_table_2() {
        let p = tiny_program();
        let kb = |k: &PredictorKind| k.build(&p, 10).storage_bits() as f64 / 8192.0;
        assert_eq!(kb(&PredictorKind::StoreSets), 18.5);
        assert_eq!(kb(&PredictorKind::NoSq), 19.0);
        assert_eq!(kb(&PredictorKind::MdpTage), 38.625);
        assert_eq!(kb(&PredictorKind::MdpTageS), 13.0);
        assert_eq!(kb(&PredictorKind::Phast), 14.5);
    }
}
