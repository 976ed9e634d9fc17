//! CACTI-style SRAM and logic cost primitives.


/// Technology constants for one process node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechNode {
    /// Feature size in nanometres.
    pub feature_nm: f64,
    /// 6T SRAM cell area, µm².
    pub sram_cell_um2: f64,
    /// Average synthesized-gate (NAND2-equivalent) area, µm².
    pub gate_um2: f64,
    /// SRAM leakage per bit, nW.
    pub leak_nw_per_bit: f64,
    /// Logic leakage per gate, nW.
    pub leak_nw_per_gate: f64,
    /// Dynamic read energy per bit, fJ.
    pub dyn_fj_per_bit: f64,
    /// Dynamic energy per gate toggle, fJ.
    pub dyn_fj_per_gate: f64,
    /// Array periphery multiplier (decoders, sense amps, wiring): effective
    /// area per bit relative to the bare cell. CACTI reports 1.2–1.5 for
    /// small arrays at 22 nm.
    pub periphery: f64,
}

impl TechNode {
    /// The 22 nm node the paper evaluates at (§5.4).
    pub fn n22() -> TechNode {
        TechNode {
            feature_nm: 22.0,
            sram_cell_um2: 0.110,
            gate_um2: 0.38,
            leak_nw_per_bit: 1.4,
            leak_nw_per_gate: 1.5,
            dyn_fj_per_bit: 0.9,
            dyn_fj_per_gate: 1.6,
            periphery: 1.32,
        }
    }
}

/// One SRAM-based structure, described by its geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramStructure {
    /// Display name.
    pub name: &'static str,
    /// Number of entries (lines, slots, registers).
    pub entries: u64,
    /// Bits per entry in the *baseline* design.
    pub base_bits: u64,
    /// Extra bits per entry added by the evaluated extension.
    pub extra_bits: u64,
    /// Read/write port pairs (ports scale periphery).
    pub ports: u32,
    /// Fraction of the entry's bits touched by a typical access (dynamic
    /// energy accounting; tag/status bits are read on every access, data
    /// only partially).
    pub access_fraction: f64,
    /// Fraction of the *extra* bits touched per access.
    pub extra_access_fraction: f64,
}

impl SramStructure {
    fn port_factor(&self) -> f64 {
        1.0 + 0.35 * (self.ports.saturating_sub(1)) as f64
    }

    /// Baseline area in µm².
    pub fn base_area_um2(&self, t: &TechNode) -> f64 {
        self.entries as f64 * self.base_bits as f64
            * t.sram_cell_um2
            * t.periphery
            * self.port_factor()
    }

    /// Area added by the extension, µm².
    pub fn extra_area_um2(&self, t: &TechNode) -> f64 {
        self.entries as f64 * self.extra_bits as f64
            * t.sram_cell_um2
            * t.periphery
            * self.port_factor()
    }

    /// Baseline static power, nW.
    pub fn base_static_nw(&self, t: &TechNode) -> f64 {
        self.entries as f64 * self.base_bits as f64 * t.leak_nw_per_bit
    }

    /// Extension static power, nW.
    pub fn extra_static_nw(&self, t: &TechNode) -> f64 {
        self.entries as f64 * self.extra_bits as f64 * t.leak_nw_per_bit
    }

    /// Baseline dynamic energy per access, fJ.
    pub fn base_dyn_fj(&self, t: &TechNode) -> f64 {
        self.base_bits as f64 * self.access_fraction * t.dyn_fj_per_bit
    }

    /// Extension dynamic energy per access, fJ.
    pub fn extra_dyn_fj(&self, t: &TechNode) -> f64 {
        self.extra_bits as f64 * self.extra_access_fraction * t.dyn_fj_per_bit
    }

    /// Relative area overhead of the extension, percent.
    pub fn area_overhead_pct(&self, t: &TechNode) -> f64 {
        100.0 * self.extra_area_um2(t) / self.base_area_um2(t)
    }

    /// Relative dynamic-energy overhead, percent.
    pub fn dynamic_overhead_pct(&self, t: &TechNode) -> f64 {
        100.0 * self.extra_dyn_fj(t) / self.base_dyn_fj(t)
    }
}

/// Synthesized logic added by an extension (comparators, state machines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogicBlock {
    /// Display name.
    pub name: &'static str,
    /// NAND2-equivalent gate count (Design-Compiler-style estimate).
    pub gates: u64,
    /// Toggle activity per access in `[0,1]`.
    pub activity: f64,
}

impl LogicBlock {
    /// Area, µm².
    pub fn area_um2(&self, t: &TechNode) -> f64 {
        self.gates as f64 * t.gate_um2
    }

    /// Static power, nW.
    pub fn static_nw(&self, t: &TechNode) -> f64 {
        self.gates as f64 * t.leak_nw_per_gate
    }

    /// Dynamic energy per access, fJ.
    pub fn dyn_fj(&self, t: &TechNode) -> f64 {
        self.gates as f64 * self.activity * t.dyn_fj_per_gate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1d_with_tags() -> SramStructure {
        // 512 lines × (512 data + 38 cache tag/state) bits; MTE adds 16
        // lock bits per line (4 granules × 4 bits).
        SramStructure {
            name: "L1D",
            entries: 512,
            base_bits: 550,
            extra_bits: 16,
            ports: 2,
            access_fraction: 0.25,
            extra_access_fraction: 0.25,
        }
    }

    #[test]
    fn overheads_are_ratio_based_and_port_invariant() {
        let t = TechNode::n22();
        let s = l1d_with_tags();
        let pct = s.area_overhead_pct(&t);
        assert!((pct - 100.0 * 16.0 / 550.0).abs() < 1e-9);
        // Ports scale both numerator and denominator.
        let mut s1 = s;
        s1.ports = 1;
        assert!((s1.area_overhead_pct(&t) - pct).abs() < 1e-9);
    }

    #[test]
    fn absolute_area_scales_with_bits_and_ports() {
        let t = TechNode::n22();
        let s = l1d_with_tags();
        let base = s.base_area_um2(&t);
        let mut doubled = s;
        doubled.base_bits *= 2;
        assert!((doubled.base_area_um2(&t) / base - 2.0).abs() < 1e-9);
        let mut three_ports = s;
        three_ports.ports = 3;
        assert!(three_ports.base_area_um2(&t) > base);
    }

    #[test]
    fn dynamic_overhead_honours_access_fractions() {
        let t = TechNode::n22();
        let mut s = l1d_with_tags();
        s.access_fraction = 1.0;
        s.extra_access_fraction = 0.25;
        let pct = s.dynamic_overhead_pct(&t);
        assert!((pct - 100.0 * (16.0 * 0.25) / 550.0).abs() < 1e-9);
    }

    #[test]
    fn logic_block_costs_scale_with_gates() {
        let t = TechNode::n22();
        let a = LogicBlock { name: "tsh", gates: 1000, activity: 0.2 };
        let b = LogicBlock { name: "tsh2", gates: 2000, activity: 0.2 };
        assert!((b.area_um2(&t) / a.area_um2(&t) - 2.0).abs() < 1e-9);
        assert!(b.static_nw(&t) > a.static_nw(&t));
        assert!(b.dyn_fj(&t) > a.dyn_fj(&t));
    }
}
