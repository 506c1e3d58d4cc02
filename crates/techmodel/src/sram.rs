//! CACTI-like LLC slice model.
//!
//! The paper derives cache parameters from CACTI 6.5: a 1 MB slice has an
//! area of 3.2 mm², dissipates 500 mW (mostly leakage), and performs a
//! serial lookup — 1 cycle of tag followed by 4 cycles of data.

/// LLC slice model constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramModel {
    /// Area per megabyte, mm².
    pub area_mm2_per_mb: f64,
    /// Power per megabyte, watts (mostly leakage).
    pub power_w_per_mb: f64,
    /// Tag lookup latency, cycles.
    pub tag_cycles: u32,
    /// Data lookup latency, cycles.
    pub data_cycles: u32,
}

impl SramModel {
    /// The paper's CACTI 6.5 figures.
    pub fn paper() -> Self {
        SramModel {
            area_mm2_per_mb: 3.2,
            power_w_per_mb: 0.5,
            tag_cycles: 1,
            data_cycles: 4,
        }
    }

    /// Area of a slice of `mb` megabytes.
    pub fn slice_area_mm2(&self, mb: f64) -> f64 {
        self.area_mm2_per_mb * mb
    }

    /// Power of a slice of `mb` megabytes.
    pub fn slice_power_w(&self, mb: f64) -> f64 {
        self.power_w_per_mb * mb
    }
}

impl Default for SramModel {
    fn default() -> Self {
        SramModel::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_slice_numbers() {
        let s = SramModel::paper();
        // The 64-tile, 8 MB NUCA LLC: 128 KB per slice.
        let per_slice_mb = 8.0 / 64.0;
        assert!((s.slice_area_mm2(per_slice_mb) - 0.4).abs() < 1e-12);
        assert!((s.slice_power_w(8.0) - 4.0).abs() < 1e-12);
    }
}
