//! MDP-TAGE (Perais & Seznec, PACT 2018), evaluated standalone with a
//! 7-bit store-distance field as in the paper's §II-C.

use phast_branch::{DivergentHistory, PathFolder};
use phast_isa::Pc;
use phast_mdp::{
    pc_index_hash, pc_tag_hash, AccessStats, AssocTable, DepPrediction, LoadCommit, LoadQuery,
    MemDepPredictor, PredictionOutcome, TableGeometry, Violation, MAX_STORE_DISTANCE,
};

/// Geometry of one MDP-TAGE component.
#[derive(Clone, Copy, Debug)]
pub struct Component {
    /// Sets (power of two).
    pub sets: usize,
    /// Ways per set (1 = direct-mapped, as the original TAGE).
    pub ways: usize,
    /// Partial tag bits.
    pub tag_bits: u32,
    /// History length of this component (divergent branches).
    pub history_len: u32,
}

/// Configuration of [`MdpTage`].
#[derive(Clone, Debug)]
pub struct MdpTageConfig {
    /// Components, shortest history first.
    pub components: Vec<Component>,
    /// Whether entries carry an LRU field (set-associative variants).
    pub lru_bits: usize,
    /// Reset all `u` bits after this many predictor accesses (§II-C: MDP
    /// needs a higher reset frequency than branch TAGE).
    pub u_reset_period: u64,
    /// On a detected false dependence, reset the providing entry with
    /// probability `1/false_dep_reset_denom` (§II-C: 1/256).
    pub false_dep_reset_denom: u32,
}

impl MdpTageConfig {
    /// The paper's 38.625 KB configuration (Table II): 12 components on
    /// the (6, 2000) geometric series, 16K entries total, 7–15 bit tags.
    pub fn paper() -> MdpTageConfig {
        // Geometric lengths 6 .. 2000 over 12 components.
        let lengths = [6u32, 10, 17, 29, 50, 84, 143, 242, 411, 697, 1181, 2000];
        let geom: Vec<Component> = lengths
            .iter()
            .enumerate()
            .map(|(i, &history_len)| {
                let (sets, tag_bits) = if i < 4 {
                    (2048, 7 + i as u32) // 7, 8, 9, 10
                } else {
                    (1024, [13, 13, 14, 14, 14, 15, 15, 15][i - 4])
                };
                Component { sets, ways: 1, tag_bits, history_len }
            })
            .collect();
        MdpTageConfig {
            components: geom,
            lru_bits: 0,
            u_reset_period: 512 * 1024,
            false_dep_reset_denom: 256,
        }
    }

    /// MDP-TAGE-S (Table II): the same training algorithm on PHAST's table
    /// layout — 8 four-way tables of 128 sets at history lengths
    /// (0, 2, 4, 6, 8, 12, 16, 32), 16-bit tags; 13 KB.
    pub fn short() -> MdpTageConfig {
        let lengths = [0u32, 2, 4, 6, 8, 12, 16, 32];
        MdpTageConfig {
            components: lengths
                .iter()
                .map(|&history_len| Component { sets: 128, ways: 4, tag_bits: 16, history_len })
                .collect(),
            lru_bits: 2,
            u_reset_period: 512 * 1024,
            false_dep_reset_denom: 256,
        }
    }

    /// The paper configuration with every component's set count scaled by
    /// `num/den` (Fig. 13 sweep). Set counts stay powers of two.
    pub fn paper_scaled(num: usize, den: usize) -> MdpTageConfig {
        let mut cfg = MdpTageConfig::paper();
        for c in &mut cfg.components {
            let sets = (c.sets * num / den).next_power_of_two();
            c.sets = sets.max(64);
        }
        cfg
    }

    /// Total storage in bits: per entry tag + 7-bit distance + u bit
    /// (+ LRU for the associative variant).
    pub fn storage_bits(&self) -> usize {
        self.components
            .iter()
            .map(|c| c.sets * c.ways * (c.tag_bits as usize + 7 + 1 + self.lru_bits))
            .sum()
    }
}

/// Most components an [`MdpTage`] may have, so one training call's keys
/// fit a fixed array.
const MAX_COMPONENTS: usize = 16;

#[derive(Clone, Copy, Debug)]
struct Entry {
    distance: u8,
    useful: bool,
}

/// The MDP-TAGE predictor.
///
/// Prediction: the longest-history component with a tag match and a set
/// `u` bit provides the store distance. Training: with no prior provider,
/// allocate at the shortest history; after a misprediction, allocate at
/// the next longer history — the brute-force length search PHAST replaces
/// with the exact N+1 rule.
pub struct MdpTage {
    cfg: MdpTageConfig,
    /// Cached display name (`name()` must not allocate per call).
    name: String,
    tables: Vec<AssocTable<Entry>>,
    /// One past the longest component `allocate` has ever written. No
    /// entry is ever removed, so the components from here on are empty.
    populated: usize,
    accesses: u64,
    lfsr: u32,
    stats: AccessStats,
}

impl MdpTage {
    /// Creates an MDP-TAGE predictor.
    pub fn new(cfg: MdpTageConfig) -> MdpTage {
        // `provider` and `train_violation` fold their components from one
        // incremental history walk, which requires the documented
        // shortest-first ordering; training keeps their keys in a fixed
        // array.
        assert!(
            cfg.components.windows(2).all(|w| w[0].history_len <= w[1].history_len),
            "components must be ordered shortest history first"
        );
        assert!(cfg.components.len() <= MAX_COMPONENTS, "at most 16 components");
        let tables = cfg
            .components
            .iter()
            .map(|c| {
                AssocTable::new(TableGeometry { sets: c.sets, ways: c.ways, tag_bits: c.tag_bits })
            })
            .collect();
        let style = if cfg.lru_bits > 0 { "mdp-tage-s" } else { "mdp-tage" };
        let name = format!("{style}-{:.1}KB", cfg.storage_bits() as f64 / 8192.0);
        MdpTage {
            tables,
            cfg,
            name,
            populated: 0,
            accesses: 0,
            lfsr: 0xbeef,
            stats: AccessStats::default(),
        }
    }

    /// Index/tag of component `ci`, folding its history with `folder`
    /// (components shortest history first, as [`PathFolder`] requires).
    fn keys_from(&self, ci: usize, pc: Pc, folder: &mut PathFolder<'_>) -> (u64, u64) {
        let c = &self.cfg.components[ci];
        let index_bits = c.sets.trailing_zeros();
        let folded = folder.fold_plain(c.history_len as usize, index_bits + c.tag_bits);
        let index = pc_index_hash(pc) ^ (folded & ((1 << index_bits) - 1));
        let tag = pc_tag_hash(pc) ^ (folded >> index_bits);
        (index, tag)
    }

    fn tick(&mut self) {
        self.accesses += 1;
        if self.accesses.is_multiple_of(self.cfg.u_reset_period) {
            for t in &mut self.tables {
                for e in t.iter_mut() {
                    e.useful = false;
                }
            }
        }
    }

    fn rand(&mut self) -> u32 {
        let lsb = self.lfsr & 1;
        self.lfsr >>= 1;
        if lsb != 0 {
            self.lfsr ^= 0xB400;
        }
        self.lfsr
    }

    fn provider(&mut self, pc: Pc, history: &DivergentHistory) -> Option<(usize, u8)> {
        // A prediction reads every component (Fig. 16's energy), but an
        // empty one cannot match, so only the filled ones are folded and
        // probed: the long components, whose folds walk most of the
        // history, fill last if at all. One incremental walk serves them:
        // the geometric series probes shortest history first, so each
        // component's path is a prefix of the next (per-load hot path).
        self.stats.reads += self.tables.len() as u64;
        let mut found = None;
        let mut folder = PathFolder::new(history);
        for ci in 0..self.populated {
            let (index, tag) = self.keys_from(ci, pc, &mut folder);
            if let Some(e) = self.tables[ci].peek(index, tag) {
                if e.useful {
                    found = Some((ci, e.distance));
                }
            }
        }
        found
    }

    fn allocate(&mut self, ci: usize, (index, tag): (u64, u64), distance: u32) {
        self.stats.writes += 1;
        self.populated = self.populated.max(ci + 1);
        self.tables[ci].insert(
            index,
            tag,
            Entry { distance: distance.min(MAX_STORE_DISTANCE) as u8, useful: true },
        );
    }

}

impl MemDepPredictor for MdpTage {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict_load(&mut self, q: &LoadQuery<'_>) -> PredictionOutcome {
        self.tick();
        match self.provider(q.pc, q.history) {
            Some((ci, dist)) => PredictionOutcome {
                dep: DepPrediction::Distance(u32::from(dist)),
                hint: ci as u64 + 1,
            },
            None => PredictionOutcome::none(),
        }
    }

    fn train_violation(&mut self, v: &Violation<'_>) {
        self.tick();
        // §II-C: no prediction -> allocate starting at the shortest
        // history; an incorrect prediction -> at a longer history than
        // the provider. As in TAGE, allocation only steals slots whose
        // `u` bit is clear; established entries are protected, otherwise
        // two hot dependences sharing a direct-mapped slot would evict
        // each other forever.
        let start = if v.prior.dep.is_dependence() && v.prior.hint > 0 {
            (v.prior.hint as usize).min(self.tables.len() - 1)
        } else {
            0
        };
        // An existing entry for this exact context retrains in place. One
        // ascending walk of the history folds every candidate component.
        let n = self.tables.len();
        let mut keys = [(0, 0); MAX_COMPONENTS];
        let mut folder = PathFolder::new(v.history);
        for (ci, key) in keys[..n].iter_mut().enumerate().skip(start) {
            *key = self.keys_from(ci, v.load_pc, &mut folder);
            if let Some(e) = self.tables[ci].lookup(key.0, key.1) {
                e.distance = v.store_distance.min(MAX_STORE_DISTANCE) as u8;
                e.useful = true;
                self.stats.writes += 1;
                return;
            }
        }
        // Otherwise claim the first slot that is free or not useful.
        for (ci, &(index, tag)) in keys[..n].iter().enumerate().skip(start) {
            let claimable = !self.tables[ci].set_full(index)
                || self.tables[ci].lru_victim_mut(index).is_some_and(|e| !e.useful);
            if claimable {
                self.allocate(ci, (index, tag), v.store_distance);
                return;
            }
        }
        // Everything useful along the path: age the shortest candidate so
        // a future allocation can succeed (TAGE's u decay).
        let index = keys[start].0;
        if let Some(e) = self.tables[start].lru_victim_mut(index) {
            e.useful = false;
            self.stats.writes += 1;
        }
    }

    fn load_committed(&mut self, c: &LoadCommit<'_>) {
        let DepPrediction::Distance(_) = c.prediction.dep else { return };
        if c.waited_correct || c.prediction.hint == 0 {
            return;
        }
        // False dependence: reset the providing entry with probability
        // 1/256 so stale dependences eventually vanish (§II-C).
        let denom = self.cfg.false_dep_reset_denom;
        if self.rand().is_multiple_of(denom) {
            let ci = (c.prediction.hint - 1) as usize;
            let (index, tag) = self.keys_from(ci, c.pc, &mut PathFolder::new(c.history));
            self.stats.writes += 1;
            if let Some(e) = self.tables[ci].lookup(index, tag) {
                e.useful = false;
            }
        }
    }

    fn storage_bits(&self) -> usize {
        self.cfg.storage_bits()
    }

    fn access_stats(&self) -> AccessStats {
        self.stats
    }

    fn reset_access_stats(&mut self) {
        self.stats = AccessStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_branch::DivergentEvent;

    fn history_with(events: &[(bool, u64)]) -> DivergentHistory {
        let mut h = DivergentHistory::new();
        for &(taken, target) in events {
            h.push(DivergentEvent { indirect: false, taken, target });
        }
        h
    }

    fn lq<'a>(pc: Pc, h: &'a DivergentHistory) -> LoadQuery<'a> {
        LoadQuery { pc, token: 0, history: h, arch_seq: 0, older_stores: 16 }
    }

    fn viol<'a>(
        pc: Pc,
        distance: u32,
        prior: PredictionOutcome,
        h: &'a DivergentHistory,
    ) -> Violation<'a> {
        Violation {
            load_pc: pc,
            store_pc: 0,
            store_distance: distance,
            history_len: 1,
            history: h,
            load_token: 0,
            store_token: 0,
            prior,
        }
    }

    /// The provider before the probe bound: folds and probes every
    /// component, filled or not.
    fn reference_provider(
        p: &mut MdpTage,
        pc: Pc,
        history: &DivergentHistory,
    ) -> Option<(usize, u8)> {
        let mut found = None;
        let mut folder = PathFolder::new(history);
        for ci in 0..p.tables.len() {
            p.stats.reads += 1;
            let (index, tag) = p.keys_from(ci, pc, &mut folder);
            if let Some(e) = p.tables[ci].peek(index, tag) {
                if e.useful {
                    found = Some((ci, e.distance));
                }
            }
        }
        found
    }

    /// `predict_load` through [`reference_provider`].
    fn reference_predict(p: &mut MdpTage, q: &LoadQuery<'_>) -> PredictionOutcome {
        p.tick();
        match reference_provider(p, q.pc, q.history) {
            Some((ci, dist)) => PredictionOutcome {
                dep: DepPrediction::Distance(u32::from(dist)),
                hint: ci as u64 + 1,
            },
            None => PredictionOutcome::none(),
        }
    }

    /// One divergent event: (indirect, taken, target).
    type Event = (bool, bool, u64);

    /// One call: (kind: predict / violation / commit, load, history,
    /// flag, hint, store distance). The flag makes a violation's prior a
    /// dependence, or a commit's wait correct.
    type Call = (u8, usize, usize, bool, u64, u32);

    /// Drives two predictors built from `cfg` through `calls`, one as it
    /// is and one predicting through [`reference_provider`], and requires
    /// the same outcome and access counts after every call. The histories
    /// share `base` (oldest events) and differ in their newest `tails`.
    fn matches_reference(
        mut cfg: MdpTageConfig,
        base: &[Event],
        tails: &[Vec<Event>],
        calls: &[Call],
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        cfg.false_dep_reset_denom = 1;
        let n = cfg.components.len() as u64;
        let histories: Vec<DivergentHistory> = tails
            .iter()
            .map(|tail| {
                let mut h = DivergentHistory::new();
                for &(indirect, taken, target) in base.iter().chain(tail) {
                    h.push(DivergentEvent { indirect, taken, target });
                }
                h
            })
            .collect();
        let mut p = MdpTage::new(cfg.clone());
        let mut r = MdpTage::new(cfg);
        for (i, &(kind, load, hi, flag, hint, distance)) in calls.iter().enumerate() {
            let pc = 0x4000 + 0x44 * load as u64;
            let h = &histories[hi % histories.len()];
            let hint = hint % (n + 1);
            match kind {
                0 => {
                    let q = lq(pc, h);
                    prop_assert_eq!(
                        p.predict_load(&q),
                        reference_predict(&mut r, &q),
                        "call {}",
                        i
                    );
                }
                1 => {
                    let dep =
                        if flag { DepPrediction::Distance(distance) } else { DepPrediction::None };
                    let v = viol(pc, distance, PredictionOutcome { dep, hint }, h);
                    p.train_violation(&v);
                    r.train_violation(&v);
                }
                _ => {
                    let c = LoadCommit {
                        pc,
                        prediction: PredictionOutcome {
                            dep: DepPrediction::Distance(distance),
                            hint,
                        },
                        actual_distance: None,
                        waited_correct: flag,
                        history: h,
                    };
                    p.load_committed(&c);
                    r.load_committed(&c);
                }
            }
            prop_assert_eq!(p.access_stats(), r.access_stats(), "call {}", i);
        }
        Ok(())
    }

    /// Twelve components of 16 sets on the paper's lengths, so every
    /// component fills, with a short `u` reset period.
    fn small_tables() -> MdpTageConfig {
        let mut cfg = MdpTageConfig::paper();
        for c in &mut cfg.components {
            c.sets = 16;
        }
        cfg.u_reset_period = 64;
        cfg
    }

    use proptest::collection::vec;
    use proptest::prelude::*;

    fn event() -> impl Strategy<Value = Event> {
        (any::<bool>(), any::<bool>(), 0u64..32)
    }

    fn call() -> impl Strategy<Value = Call> {
        (0u8..3, 0usize..6, 0usize..5, any::<bool>(), 0u64..17, 0u32..140)
    }

    proptest! {
        /// Probing only the filled components predicts and counts as
        /// probing all twelve of the paper's (6..2,000 branches).
        #[test]
        fn paper_probe_bound_matches_the_reference(
            base in vec(event(), 0..2_100),
            tails in vec(vec(event(), 0..24), 1..5),
            calls in vec(call(), 1..160),
        ) {
            matches_reference(MdpTageConfig::paper(), &base, &tails, &calls)?;
        }

        /// The same for MDP-TAGE-S's eight 4-way tables (0..32 branches).
        #[test]
        fn short_probe_bound_matches_the_reference(
            base in vec(event(), 0..48),
            tails in vec(vec(event(), 0..24), 1..5),
            calls in vec(call(), 1..160),
        ) {
            matches_reference(MdpTageConfig::short(), &base, &tails, &calls)?;
        }

        /// The same when every component fills and `u` bits reset often.
        #[test]
        fn filled_probe_bound_matches_the_reference(
            base in vec(event(), 0..2_100),
            tails in vec(vec(event(), 0..24), 1..5),
            calls in vec(call(), 1..160),
        ) {
            matches_reference(small_tables(), &base, &tails, &calls)?;
        }
    }

    #[test]
    fn paper_config_is_38_625_kb() {
        let cfg = MdpTageConfig::paper();
        assert_eq!(cfg.components.len(), 12);
        let entries: usize = cfg.components.iter().map(|c| c.sets * c.ways).sum();
        assert_eq!(entries, 16 * 1024, "Table II: 16K entries");
        assert_eq!(cfg.storage_bits() as f64 / 8192.0, 38.625, "Table II");
    }

    #[test]
    fn short_config_is_13_kb() {
        let cfg = MdpTageConfig::short();
        let entries: usize = cfg.components.iter().map(|c| c.sets * c.ways).sum();
        assert_eq!(entries, 4096, "Table II: 4K entries");
        assert_eq!(cfg.storage_bits() as f64 / 8192.0, 13.0, "Table II");
    }

    #[test]
    fn first_violation_allocates_shortest() {
        let mut p = MdpTage::new(MdpTageConfig::paper());
        let h = history_with(&[(true, 1), (false, 2)]);
        p.train_violation(&viol(0x100, 4, PredictionOutcome::none(), &h));
        let out = p.predict_load(&lq(0x100, &h));
        assert_eq!(out.dep, DepPrediction::Distance(4));
        assert_eq!(out.hint, 1, "provided by component 0 (shortest history)");
    }

    #[test]
    fn misprediction_escalates_history_length() {
        let mut p = MdpTage::new(MdpTageConfig::paper());
        let h = history_with(&[(true, 1), (false, 2)]);
        p.train_violation(&viol(0x100, 4, PredictionOutcome::none(), &h));
        let prior = p.predict_load(&lq(0x100, &h));
        // The prediction was wrong (violation again): allocate longer.
        p.train_violation(&viol(0x100, 6, prior, &h));
        let out = p.predict_load(&lq(0x100, &h));
        assert_eq!(out.dep, DepPrediction::Distance(6));
        assert_eq!(out.hint, 2, "escalated to component 1");
    }

    #[test]
    fn longest_matching_component_provides() {
        let mut p = MdpTage::new(MdpTageConfig::paper());
        let h = history_with(&[(true, 1)]);
        p.train_violation(&viol(0x100, 1, PredictionOutcome::none(), &h));
        let prior = p.predict_load(&lq(0x100, &h));
        p.train_violation(&viol(0x100, 2, prior, &h));
        let out = p.predict_load(&lq(0x100, &h));
        assert_eq!(out.dep, DepPrediction::Distance(2), "longer history wins");
    }

    #[test]
    fn periodic_u_reset_forgets() {
        let mut cfg = MdpTageConfig::paper();
        cfg.u_reset_period = 4;
        let mut p = MdpTage::new(cfg);
        let h = history_with(&[(true, 1)]);
        p.train_violation(&viol(0x100, 1, PredictionOutcome::none(), &h));
        for _ in 0..4 {
            let _ = p.predict_load(&lq(0x900, &h));
        }
        assert_eq!(p.predict_load(&lq(0x100, &h)).dep, DepPrediction::None);
    }

    #[test]
    fn false_dependence_eventually_resets_entry() {
        let mut cfg = MdpTageConfig::paper();
        cfg.false_dep_reset_denom = 1; // make the probabilistic reset certain
        let mut p = MdpTage::new(cfg);
        let h = history_with(&[(true, 1)]);
        p.train_violation(&viol(0x100, 1, PredictionOutcome::none(), &h));
        let out = p.predict_load(&lq(0x100, &h));
        p.load_committed(&LoadCommit {
            pc: 0x100,
            prediction: out,
            actual_distance: None,
            waited_correct: false,
            history: &h,
        });
        assert_eq!(p.predict_load(&lq(0x100, &h)).dep, DepPrediction::None);
    }
}
