//! Semi-global wire model (the paper's Section IV-B constants).

/// Repeated semi-global wires at 32 nm / 0.9 V.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireModel {
    /// Wire pitch in nanometres.
    pub pitch_nm: f64,
    /// Signal delay in picoseconds per millimetre (repeated for
    /// power-delay balance).
    pub delay_ps_per_mm: f64,
    /// Switching energy in femtojoules per bit per millimetre on random
    /// data.
    pub energy_fj_per_bit_mm: f64,
    /// Fraction of the link energy dissipated in repeaters.
    pub repeater_energy_fraction: f64,
    /// Repeater area in square micrometres per bit per millimetre (wires
    /// route over logic, so only repeaters contribute to area).
    pub repeater_area_um2_per_bit_mm: f64,
}

impl WireModel {
    /// The paper's wire parameters.
    pub fn paper() -> Self {
        WireModel {
            pitch_nm: 200.0,
            delay_ps_per_mm: 85.0,
            energy_fj_per_bit_mm: 50.0,
            repeater_energy_fraction: 0.19,
            // Calibrated so the mesh's 224 unidirectional 128-bit,
            // ~1.85 mm links contribute ≈ 0.6 mm² of repeater area to the
            // 3.5 mm² mesh NOC (Figure 8's link component).
            repeater_area_um2_per_bit_mm: 11.3,
        }
    }

    /// How many millimetres a signal covers within one clock period at
    /// `freq_ghz`.
    pub fn reach_mm_per_cycle(&self, freq_ghz: f64) -> f64 {
        (1000.0 / freq_ghz) / self.delay_ps_per_mm
    }

    /// Energy in joules to move `bits` across `mm` millimetres.
    pub fn energy_j(&self, bits: u64, mm: f64) -> f64 {
        bits as f64 * mm * self.energy_fj_per_bit_mm * 1e-15
    }

    /// Repeater area in mm² for a `bits`-wide link of `mm` millimetres.
    pub fn repeater_area_mm2(&self, bits: u32, mm: f64) -> f64 {
        bits as f64 * mm * self.repeater_area_um2_per_bit_mm * 1e-6
    }
}

impl Default for WireModel {
    fn default() -> Self {
        WireModel::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_tiles_per_cycle_at_2ghz() {
        // The paper's core argument: at 2 GHz (500 ps) and 85 ps/mm, a
        // signal covers ~5.9 mm — about two ~1.85 mm server-class tiles
        // once crossbar setup/latching margins are accounted for, not
        // eight as in SoC-class designs.
        let w = WireModel::paper();
        let reach = w.reach_mm_per_cycle(2.0);
        assert!((reach - 5.88).abs() < 0.05, "reach {reach}");
        let tiles = (reach / 1.85).floor() as u32;
        assert!((2..=3).contains(&tiles));
    }

    #[test]
    fn link_energy_matches_constants() {
        let w = WireModel::paper();
        // One 128-bit flit over 1.85 mm: 128 * 1.85 * 50 fJ ≈ 11.8 pJ.
        let e = w.energy_j(128, 1.85);
        assert!((e - 11.84e-12).abs() < 0.1e-12, "{e}");
    }

    #[test]
    fn repeater_area_scales_with_width_and_length() {
        let w = WireModel::paper();
        let a1 = w.repeater_area_mm2(128, 1.85);
        let a2 = w.repeater_area_mm2(256, 1.85);
        assert!((a2 / a1 - 2.0).abs() < 1e-9);
    }
}
