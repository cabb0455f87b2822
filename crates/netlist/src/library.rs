//! Calibrated cell-library models.
//!
//! A [`Library`] supplies, per cell type and drive strength: cell area,
//! per-pin input capacitance, intrinsic delay, per-pin delay offsets (for
//! pin swapping) and drive resistance. Arc delay follows the linear delay
//! model `d = intrinsic + pin_offset + R_drive · C_load`, with load the sum
//! of sink pin capacitances plus a fanout-proportional wire capacitance.
//!
//! Two calibrations are provided:
//!
//! - [`Library::nangate45`] — values inspired by the open-source Nangate45
//!   (FreePDK45) library the paper trains with: X1 NAND2 ≈ 0.8 µm²,
//!   FO4 inverter delay ≈ 25 ps;
//! - [`Library::tech8`] — a scaled stand-in for the paper's industrial 8 nm
//!   library (~100× smaller area, faster cells, more drive options), used
//!   for the Fig. 5 cross-library generalization experiments.
//!
//! Absolute accuracy against the real libraries is *not* the goal (the paper
//! itself only compares shapes across tools); responding to structure the
//! way real synthesis does — fanout costs load, load costs delay, upsizing
//! buys delay with area — is.

use crate::cell::{CellType, Drive};

/// Timing/area parameters for one cell type at drive X1.
#[derive(Clone, Copy, Debug)]
pub struct CellParams {
    /// Cell area at X1, µm².
    pub area: f64,
    /// Input pin capacitance at X1, fF.
    pub input_cap: f64,
    /// Intrinsic (zero-load) delay, ns.
    pub intrinsic: f64,
    /// Output drive resistance at X1, ns/fF.
    pub resistance: f64,
}

/// Drive strengths X1–X32, indexed by `log2(x)`.
const DRIVES: usize = 6;

/// Every accessor's value for one (cell type, drive), precomputed with the
/// accessors' own expressions so lookups are O(1) and bit-identical.
#[derive(Clone, Copy, Debug, Default)]
struct CellEntry {
    area: f64,
    input_cap: f64,
    intrinsic: f64,
    resistance: f64,
    pin_offset: [f64; 3],
    /// `intrinsic + pin_offset[pin]`, the load-independent part of an arc.
    arc_base: [f64; 3],
}

/// A technology library: per-cell-type parameters plus global scaling rules.
#[derive(Clone, Debug)]
pub struct Library {
    name: String,
    params: Vec<(CellType, CellParams)>,
    /// Maximum available drive strength.
    max_drive: Drive,
    /// Wire capacitance added per fanout connection, fF.
    wire_cap_per_fanout: f64,
    /// Output load seen by primary outputs, fF.
    output_load: f64,
    /// Area growth per drive doubling relative to X1
    /// (`area(d) = area · (1 + area_slope·(d-1))`).
    area_slope: f64,
    /// Intrinsic delay growth per drive step (larger cells are slightly
    /// slower unloaded).
    intrinsic_slope: f64,
    /// Dense `[cell type][drive]` table derived from the fields above by
    /// [`Library::tabulate`]; every accessor reads it.
    table: Vec<CellEntry>,
}

impl Library {
    /// The Nangate45-inspired 45 nm calibration (the paper's open flow).
    pub fn nangate45() -> Library {
        use CellType::*;
        let p = |area, input_cap, intrinsic, resistance| CellParams {
            area,
            input_cap,
            intrinsic,
            resistance,
        };
        Library {
            name: "nangate45".to_string(),
            params: vec![
                (Inv, p(0.532, 1.6, 0.008, 0.0027)),
                (Buf, p(0.798, 1.5, 0.016, 0.0025)),
                (Nand2, p(0.798, 1.6, 0.010, 0.0035)),
                (Nor2, p(0.798, 1.7, 0.012, 0.0045)),
                (And2, p(1.064, 1.5, 0.018, 0.0030)),
                (Or2, p(1.064, 1.5, 0.020, 0.0032)),
                (Xor2, p(1.596, 2.2, 0.024, 0.0050)),
                (Xnor2, p(1.596, 2.2, 0.024, 0.0050)),
                (Aoi21, p(1.064, 1.8, 0.013, 0.0045)),
                (Oai21, p(1.064, 1.8, 0.014, 0.0048)),
            ],
            max_drive: Drive::new(16),
            wire_cap_per_fanout: 0.9,
            output_load: 3.2,
            area_slope: 0.75,
            intrinsic_slope: 0.04,
            table: Vec::new(),
        }
        .tabulate()
    }

    /// The scaled 8 nm-class calibration standing in for the paper's
    /// industrial library (Fig. 5): ~100× smaller cells, faster intrinsics,
    /// lower capacitances and a deeper drive ladder, as a leading-edge
    /// commercial library offers.
    pub fn tech8() -> Library {
        let mut lib = Library::nangate45();
        lib.name = "tech8".to_string();
        for (_, p) in &mut lib.params {
            p.area /= 90.0;
            p.input_cap /= 8.0;
            p.intrinsic /= 1.45;
            p.resistance *= 7.2;
        }
        lib.max_drive = Drive::new(32);
        lib.wire_cap_per_fanout /= 8.0;
        lib.output_load /= 8.0;
        lib.area_slope = 0.85;
        lib.tabulate()
    }

    /// Builds the per-(cell type, drive) table from the X1 parameters and
    /// scaling rules.
    fn tabulate(mut self) -> Library {
        let mut table = vec![CellEntry::default(); CellType::all().len() * DRIVES];
        for &(ct, p) in &self.params {
            // Per-pin extra delay: first pin slowest, last pin fastest
            // (later pins are closer to the output stack), scaled with the
            // intrinsic delay — what pin swapping exploits.
            let arity = ct.arity();
            let step = p.intrinsic * 0.18;
            let mut pin_offset = [0.0; 3];
            for (pin, off) in pin_offset.iter_mut().enumerate().take(arity) {
                *off = (arity - 1 - pin) as f64 * step;
            }
            for d in 0..DRIVES {
                let x = (1u32 << d) as f64;
                let intrinsic = p.intrinsic * (1.0 + self.intrinsic_slope * (x - 1.0).ln_1p());
                table[Self::slot(ct, d)] = CellEntry {
                    area: p.area * (1.0 + self.area_slope * (x - 1.0)),
                    input_cap: p.input_cap * x,
                    intrinsic,
                    resistance: p.resistance / x,
                    pin_offset,
                    arc_base: pin_offset.map(|off| intrinsic + off),
                };
            }
        }
        self.table = table;
        self
    }

    #[inline]
    fn slot(ct: CellType, drive_log2: usize) -> usize {
        ct as usize * DRIVES + drive_log2
    }

    #[inline]
    fn entry(&self, ct: CellType, drive: Drive) -> &CellEntry {
        &self.table[Self::slot(ct, drive.x().trailing_zeros() as usize)]
    }

    /// The library's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The strongest drive available for any cell.
    pub fn max_drive(&self) -> Drive {
        self.max_drive
    }

    /// Wire capacitance model: extra load per fanout connection, fF.
    pub fn wire_cap(&self, fanout: usize) -> f64 {
        self.wire_cap_per_fanout * fanout as f64
    }

    /// Capacitive load presented by a primary output, fF.
    pub fn output_load(&self) -> f64 {
        self.output_load
    }

    /// Cell area at the given drive, µm².
    #[inline]
    pub fn area(&self, ct: CellType, drive: Drive) -> f64 {
        self.entry(ct, drive).area
    }

    /// Input pin capacitance at the given drive, fF.
    ///
    /// Scales linearly with drive (larger input transistors).
    #[inline]
    pub fn input_cap(&self, ct: CellType, drive: Drive) -> f64 {
        self.entry(ct, drive).input_cap
    }

    /// Intrinsic delay at the given drive, ns.
    #[inline]
    pub fn intrinsic(&self, ct: CellType, drive: Drive) -> f64 {
        self.entry(ct, drive).intrinsic
    }

    /// Per-pin extra delay, ns — later pins are closer to the output stack
    /// and faster, which is what pin swapping exploits.
    #[inline]
    pub fn pin_offset(&self, ct: CellType, pin: usize) -> f64 {
        debug_assert!(pin < ct.arity());
        self.entry(ct, Drive::X1).pin_offset[pin]
    }

    /// Output drive resistance at the given drive, ns/fF.
    #[inline]
    pub fn resistance(&self, ct: CellType, drive: Drive) -> f64 {
        self.entry(ct, drive).resistance
    }

    /// Arc delay through `pin` of a cell driving `load` fF, ns:
    /// `intrinsic + pin_offset + R · load`, summed left to right.
    #[inline]
    pub fn arc_delay(&self, ct: CellType, drive: Drive, pin: usize, load: f64) -> f64 {
        let e = self.entry(ct, drive);
        e.arc_base[pin] + e.resistance * load
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fo4_inverter_delay_is_plausible_45nm() {
        // FO4: an inverter driving 4 inverter inputs ≈ 20–35 ps in 45 nm.
        let lib = Library::nangate45();
        let load = 4.0 * lib.input_cap(CellType::Inv, Drive::X1) + lib.wire_cap(4);
        let d = lib.arc_delay(CellType::Inv, Drive::X1, 0, load);
        assert!((0.015..=0.040).contains(&d), "FO4 = {d} ns");
    }

    #[test]
    fn upsizing_trades_area_for_resistance() {
        let lib = Library::nangate45();
        let x1 = Drive::X1;
        let x4 = Drive::new(4);
        assert!(lib.area(CellType::Nand2, x4) > 2.0 * lib.area(CellType::Nand2, x1));
        assert!(lib.resistance(CellType::Nand2, x4) < lib.resistance(CellType::Nand2, x1) / 2.0);
        assert!(lib.input_cap(CellType::Nand2, x4) > lib.input_cap(CellType::Nand2, x1));
    }

    #[test]
    fn tech8_is_much_smaller_and_faster() {
        let n45 = Library::nangate45();
        let t8 = Library::tech8();
        for ct in CellType::all() {
            assert!(t8.area(ct, Drive::X1) < n45.area(ct, Drive::X1) / 50.0);
            assert!(t8.intrinsic(ct, Drive::X1) < n45.intrinsic(ct, Drive::X1));
        }
        assert!(t8.max_drive() > n45.max_drive());
    }

    #[test]
    fn pin_offsets_decrease_toward_last_pin() {
        let lib = Library::nangate45();
        let a = lib.pin_offset(CellType::Aoi21, 0);
        let b = lib.pin_offset(CellType::Aoi21, 1);
        let c = lib.pin_offset(CellType::Aoi21, 2);
        assert!(a > b && b > c);
        assert_eq!(c, 0.0);
    }

    #[test]
    fn all_cell_types_have_params() {
        let lib = Library::nangate45();
        for ct in CellType::all() {
            assert!(lib.area(ct, Drive::X1) > 0.0);
            assert!(lib.input_cap(ct, Drive::X1) > 0.0);
            assert!(lib.resistance(ct, Drive::X1) > 0.0);
        }
    }

    #[test]
    fn table_matches_closed_form_bitwise() {
        for lib in [Library::nangate45(), Library::tech8()] {
            for &(ct, p) in &lib.params {
                for x in [1u8, 2, 4, 8, 16, 32] {
                    let d = Drive::new(x);
                    let xf = x as f64;
                    let area = p.area * (1.0 + lib.area_slope * (xf - 1.0));
                    let intrinsic = p.intrinsic * (1.0 + lib.intrinsic_slope * (xf - 1.0).ln_1p());
                    let resistance = p.resistance / xf;
                    assert_eq!(lib.area(ct, d).to_bits(), area.to_bits());
                    assert_eq!(lib.input_cap(ct, d).to_bits(), (p.input_cap * xf).to_bits());
                    assert_eq!(lib.intrinsic(ct, d).to_bits(), intrinsic.to_bits());
                    assert_eq!(lib.resistance(ct, d).to_bits(), resistance.to_bits());
                    for pin in 0..ct.arity() {
                        let offset = (ct.arity() - 1 - pin) as f64 * (p.intrinsic * 0.18);
                        assert_eq!(lib.pin_offset(ct, pin).to_bits(), offset.to_bits());
                        for load in [0.0, 1.7, 23.9] {
                            let arc = intrinsic + offset + resistance * load;
                            assert_eq!(lib.arc_delay(ct, d, pin, load).to_bits(), arc.to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn arc_delay_monotone_in_load() {
        let lib = Library::nangate45();
        let d1 = lib.arc_delay(CellType::Oai21, Drive::X1, 2, 2.0);
        let d2 = lib.arc_delay(CellType::Oai21, Drive::X1, 2, 8.0);
        assert!(d2 > d1);
    }
}
