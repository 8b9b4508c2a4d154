//! The unlimited (alias-free) PHAST limit study (§III-C, Figs. 6–11).

use phast_branch::Path;
use phast_isa::Pc;
use phast_mdp::{
    AccessStats, DepPrediction, LoadCommit, LoadQuery, MemDepPredictor, PredictionOutcome,
    Violation,
};
use std::collections::{BTreeSet, HashMap};

#[derive(Clone, Copy, Debug)]
struct Entry {
    distance: u32,
    confidence: u8,
}

const MAX_CONFIDENCE: u8 = 15;

/// UnlimitedPHAST: unbounded storage keyed by the exact
/// `(load PC, store→load path)` pair, trained at the exact N+1 history
/// length. No folding, no tags, no aliasing — this isolates the value of
/// the paper's history-length selection rule.
pub struct UnlimitedPhast {
    /// Optional cap on tracked history length (the Fig. 11 sweep);
    /// `None` tracks the full path however long.
    max_len: Option<u32>,
    /// Cached display name (`name()` must not allocate per call).
    name: String,
    entries: HashMap<(Pc, Path), Entry>,
    lengths_by_pc: HashMap<Pc, BTreeSet<u32>>,
    /// Unique conflicts first registered at each history length (Fig. 10).
    length_histogram: Vec<u64>,
    stats: AccessStats,
}

impl UnlimitedPhast {
    /// Creates an unlimited predictor with no history-length cap.
    pub fn new() -> UnlimitedPhast {
        UnlimitedPhast::with_max_length(None)
    }

    /// Creates an unlimited predictor that truncates trained paths to at
    /// most `max_len` divergent branches (Fig. 11 sensitivity study).
    pub fn with_max_length(max_len: Option<u32>) -> UnlimitedPhast {
        UnlimitedPhast {
            name: match max_len {
                Some(cap) => format!("unlimited-phast-max{cap}"),
                None => "unlimited-phast".into(),
            },
            max_len,
            entries: HashMap::new(),
            lengths_by_pc: HashMap::new(),
            length_histogram: Vec::new(),
            stats: AccessStats::default(),
        }
    }

    fn effective_len(&self, history_len: u32) -> u32 {
        match self.max_len {
            Some(cap) => history_len.min(cap),
            None => history_len,
        }
    }
}

impl Default for UnlimitedPhast {
    fn default() -> Self {
        UnlimitedPhast::new()
    }
}

impl MemDepPredictor for UnlimitedPhast {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict_load(&mut self, q: &LoadQuery<'_>) -> PredictionOutcome {
        let Some(lengths) = self.lengths_by_pc.get(&q.pc) else {
            return PredictionOutcome::none();
        };
        // Longest matching history wins, as in the limited implementation.
        for &len in lengths.iter().rev() {
            self.stats.reads += 1;
            let path = q.history.path(len as usize + 1);
            if let Some(e) = self.entries.get(&(q.pc, path)) {
                if e.confidence > 0 {
                    return PredictionOutcome {
                        dep: DepPrediction::Distance(e.distance),
                        hint: u64::from(len),
                    };
                }
            }
        }
        PredictionOutcome::none()
    }

    fn train_violation(&mut self, v: &Violation<'_>) {
        let len = self.effective_len(v.history_len);
        let path = v.history.path(len as usize + 1);
        self.stats.writes += 1;
        let key = (v.load_pc, path);
        if !self.entries.contains_key(&key) {
            if self.length_histogram.len() <= len as usize {
                self.length_histogram.resize(len as usize + 1, 0);
            }
            self.length_histogram[len as usize] += 1;
        }
        self.entries
            .insert(key, Entry { distance: v.store_distance, confidence: MAX_CONFIDENCE });
        self.lengths_by_pc.entry(v.load_pc).or_default().insert(len);
    }

    fn load_committed(&mut self, c: &LoadCommit<'_>) {
        let DepPrediction::Distance(_) = c.prediction.dep else { return };
        let len = c.prediction.hint as u32;
        let path = c.history.path(len as usize + 1);
        self.stats.writes += 1;
        if let Some(e) = self.entries.get_mut(&(c.pc, path)) {
            if c.waited_correct {
                e.confidence = MAX_CONFIDENCE;
            } else {
                e.confidence = e.confidence.saturating_sub(1);
            }
        }
    }

    fn storage_bits(&self) -> usize {
        0 // unlimited: not a hardware budget
    }

    fn access_stats(&self) -> AccessStats {
        self.stats
    }

    fn num_paths(&self) -> u64 {
        self.entries.len() as u64
    }

    fn path_lengths(&self) -> Vec<u64> {
        self.length_histogram.clone()
    }

    fn reset_access_stats(&mut self) {
        self.stats = AccessStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phast_branch::{DivergentEvent, DivergentHistory};

    fn history_with(events: &[(bool, u64)]) -> DivergentHistory {
        let mut h = DivergentHistory::new();
        for &(taken, target) in events {
            h.push(DivergentEvent { indirect: false, taken, target });
        }
        h
    }

    fn violation<'a>(
        pc: Pc,
        distance: u32,
        history_len: u32,
        history: &'a DivergentHistory,
    ) -> Violation<'a> {
        Violation {
            load_pc: pc,
            store_pc: 0,
            store_distance: distance,
            history_len,
            history,
            load_token: 0,
            store_token: 0,
            prior: PredictionOutcome::none(),
        }
    }

    fn query<'a>(pc: Pc, history: &'a DivergentHistory) -> LoadQuery<'a> {
        LoadQuery { pc, token: 0, history, arch_seq: 0, older_stores: 10 }
    }

    #[test]
    fn exact_path_roundtrip() {
        let mut p = UnlimitedPhast::new();
        let h = history_with(&[(true, 1), (false, 2), (true, 3)]);
        p.train_violation(&violation(0x100, 5, 2, &h));
        let out = p.predict_load(&query(0x100, &h));
        assert_eq!(out.dep, DepPrediction::Distance(5));
        assert_eq!(out.hint, 2);
        assert_eq!(p.num_paths(), 1);
    }

    #[test]
    fn distinct_paths_are_distinct_entries() {
        let mut p = UnlimitedPhast::new();
        let h1 = history_with(&[(true, 1), (true, 2)]);
        let h2 = history_with(&[(false, 1), (true, 2)]);
        p.train_violation(&violation(0x100, 0, 2, &h1));
        p.train_violation(&violation(0x100, 1, 2, &h2));
        assert_eq!(p.num_paths(), 2);
        assert_eq!(p.predict_load(&query(0x100, &h1)).dep, DepPrediction::Distance(0));
        assert_eq!(p.predict_load(&query(0x100, &h2)).dep, DepPrediction::Distance(1));
    }

    #[test]
    fn retrain_same_path_updates_in_place() {
        let mut p = UnlimitedPhast::new();
        let h = history_with(&[(true, 1)]);
        p.train_violation(&violation(0x100, 3, 1, &h));
        p.train_violation(&violation(0x100, 4, 1, &h));
        assert_eq!(p.num_paths(), 1, "same path reuses its entry (§III-C)");
        assert_eq!(p.predict_load(&query(0x100, &h)).dep, DepPrediction::Distance(4));
    }

    #[test]
    fn length_cap_truncates_training() {
        let mut p = UnlimitedPhast::with_max_length(Some(2));
        let events: Vec<(bool, u64)> = (0..10).map(|i| (true, i)).collect();
        let h = history_with(&events);
        p.train_violation(&violation(0x100, 1, 8, &h));
        let hist = p.path_lengths();
        assert_eq!(hist[2], 1, "trained at the capped length");
        assert_eq!(p.predict_load(&query(0x100, &h)).dep, DepPrediction::Distance(1));
    }

    #[test]
    fn histogram_counts_unique_conflicts_by_length() {
        let mut p = UnlimitedPhast::new();
        let h1 = history_with(&[(true, 1)]);
        let h3 = history_with(&[(true, 1), (false, 2), (true, 3)]);
        p.train_violation(&violation(0x100, 0, 1, &h1));
        p.train_violation(&violation(0x100, 0, 1, &h1)); // same conflict
        p.train_violation(&violation(0x200, 0, 3, &h3));
        let hist = p.path_lengths();
        assert_eq!(hist[1], 1);
        assert_eq!(hist[3], 1);
    }

    #[test]
    fn confidence_machinery_matches_limited() {
        let mut p = UnlimitedPhast::new();
        let h = history_with(&[(true, 1)]);
        p.train_violation(&violation(0x100, 2, 1, &h));
        let out = p.predict_load(&query(0x100, &h));
        for _ in 0..15 {
            p.load_committed(&LoadCommit {
                pc: 0x100,
                prediction: out,
                actual_distance: None,
                waited_correct: false,
                history: &h,
            });
        }
        assert_eq!(p.predict_load(&query(0x100, &h)).dep, DepPrediction::None);
    }

    #[test]
    fn no_storage_budget_reported() {
        assert_eq!(UnlimitedPhast::new().storage_bits(), 0);
    }
}
