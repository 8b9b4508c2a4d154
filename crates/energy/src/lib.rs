//! SRAM energy model for memory dependence predictor tables.
//!
//! The paper computes per-access energies with Cacti-P at 7 nm
//! (Table II) and reports total predictor energy split into reads and
//! writes (Fig. 16). We anchor the model on the published Table II
//! numbers — they *are* the Cacti-P output. Writes are charged 10% above
//! reads (drivers plus cell flip), a standard SRAM ratio.

#![warn(missing_docs)]

/// Energy of one access to one prediction table, in picojoules.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccessEnergy {
    /// Energy per table read, pJ.
    pub read_pj: f64,
    /// Energy per table write, pJ.
    pub write_pj: f64,
}

const WRITE_FACTOR: f64 = 1.1;

impl AccessEnergy {
    fn from_read(read_pj: f64) -> AccessEnergy {
        AccessEnergy { read_pj, write_pj: read_pj * WRITE_FACTOR }
    }
}

/// The predictor structures whose energies Table II publishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Structure {
    /// Store Sets SSIT (8K × 13 bits): 0.2403 pJ per access.
    StoreSetsSsit,
    /// Store Sets LFST (4K × 11 bits): 0.1026 pJ per access.
    StoreSetsLfst,
    /// NoSQ (2 tables, 19 KB total): 0.3721 pJ per predictor access.
    NoSq,
    /// MDP-TAGE (12 tables, 38.625 KB): 1.3103 pJ per predictor access.
    MdpTage,
    /// MDP-TAGE-S (8 tables, 13 KB): 0.4421 pJ per predictor access.
    MdpTageS,
    /// PHAST (8 tables, 14.5 KB): 0.4856 pJ per predictor access.
    Phast,
}

impl Structure {
    /// The Table II per-predictor-access read energy in pJ.
    pub fn paper_access_pj(self) -> f64 {
        match self {
            Structure::StoreSetsSsit => 0.2403,
            Structure::StoreSetsLfst => 0.1026,
            Structure::NoSq => 0.3721,
            Structure::MdpTage => 1.3103,
            Structure::MdpTageS => 0.4421,
            Structure::Phast => 0.4856,
        }
    }

    /// Number of tables probed per predictor access (the simulator's
    /// access counters count individual table probes).
    pub fn tables(self) -> u32 {
        match self {
            Structure::StoreSetsSsit | Structure::StoreSetsLfst => 1,
            Structure::NoSq => 2,
            Structure::MdpTage => 12,
            Structure::MdpTageS | Structure::Phast => 8,
        }
    }

    /// Per-*table-probe* energy at the paper geometry.
    pub fn per_table_probe(self) -> AccessEnergy {
        AccessEnergy::from_read(self.paper_access_pj() / f64::from(self.tables()))
    }
}

/// Total energy in nanojoules of `reads` and `writes` table probes.
pub fn total_energy_nj(reads: u64, writes: u64, e: AccessEnergy) -> (f64, f64) {
    (reads as f64 * e.read_pj / 1000.0, writes as f64 * e.write_pj / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_anchors_are_exact() {
        assert_eq!(Structure::Phast.paper_access_pj(), 0.4856);
        assert_eq!(Structure::MdpTage.paper_access_pj(), 1.3103);
        assert_eq!(Structure::NoSq.paper_access_pj(), 0.3721);
        assert_eq!(Structure::StoreSetsSsit.paper_access_pj(), 0.2403);
        assert_eq!(Structure::StoreSetsLfst.paper_access_pj(), 0.1026);
        assert_eq!(Structure::MdpTageS.paper_access_pj(), 0.4421);
    }

    #[test]
    fn per_table_probe_divides_by_table_count() {
        let p = Structure::Phast.per_table_probe();
        assert!((p.read_pj - 0.4856 / 8.0).abs() < 1e-9);
        assert!(p.write_pj > p.read_pj, "writes cost more than reads");
    }

    #[test]
    fn totals_convert_to_nanojoules() {
        let e = AccessEnergy { read_pj: 0.5, write_pj: 0.55 };
        let (r, w) = total_energy_nj(2000, 1000, e);
        assert!((r - 1.0).abs() < 1e-12);
        assert!((w - 0.55).abs() < 1e-12);
    }

    #[test]
    fn mdp_tage_is_most_expensive_per_access() {
        // Fig. 16's main observation: TAGE-like structures dominate.
        for s in [
            Structure::StoreSetsSsit,
            Structure::StoreSetsLfst,
            Structure::NoSq,
            Structure::MdpTageS,
            Structure::Phast,
        ] {
            assert!(Structure::MdpTage.paper_access_pj() > s.paper_access_pj());
        }
    }
}
