//! The shared victim memory layout used by all PoCs.

use sas_isa::{TagNibble, VirtAddr};
use sas_pipeline::System;

/// Victim public array base (16 bytes, tagged [`ARRAY1_KEY`]).
pub const ARRAY1: u64 = 0x2000;
/// Key/lock colour of the public array.
pub const ARRAY1_KEY: u8 = 0x3;
/// Secret byte's address (tagged [`SECRET_KEY`]).
pub const SECRET_ADDR: u64 = 0x2100;
/// Key/lock colour of the secret.
pub const SECRET_KEY: u8 = 0x9;
/// The secret byte the attacks try to exfiltrate.
pub const SECRET: u64 = 0x53;
/// `ARRAY1_SIZE` variable (untagged).
pub const SIZE_ADDR: u64 = 0x7000;
/// Probe (Flush+Reload) array base; entry *b* lives at `PROBE + b*64`.
pub const PROBE: u64 = 0x1_0000;
/// A pointer slot used to make indirect targets / return addresses resolve
/// slowly (flushed before the attack run).
pub const PTR_SLOT: u64 = 0x7200;
/// A second pointer/flag slot.
pub const COND_SLOT: u64 = 0x7300;
/// Attacker-owned benign array (untagged) used while training gadgets.
pub const BENIGN: u64 = 0x3000;
/// Value of `benign[0]`; its probe line must differ from the secret's.
pub const BENIGN_VAL: u64 = 0x2;
/// Protected (privileged) region faulting loads target (MDS).
pub const PROT_BASE: u64 = 0x9000;
/// Length of the protected region.
pub const PROT_LEN: u64 = 0x1000;
/// Victim store slot for Fallout (4K-aliases [`PROT_ALIAS`]).
pub const VICTIM_SLOT: u64 = 0x4123 & !0x7;
/// Faulting address whose low 12 bits match [`VICTIM_SLOT`].
pub const PROT_ALIAS: u64 = PROT_BASE | (VICTIM_SLOT & 0xFFF);

/// A tagged pointer to the secret carrying its *valid* key (what victim code
/// legitimately uses — and what a tag-matching gadget is handed).
pub fn secret_ptr_valid() -> VirtAddr {
    VirtAddr::new(SECRET_ADDR).with_key(TagNibble::new(SECRET_KEY))
}

/// A pointer to the secret carrying the public array's key — a tag-violating
/// access (the OOB Spectre-v1 situation).
pub fn secret_ptr_violating() -> VirtAddr {
    VirtAddr::new(SECRET_ADDR).with_key(TagNibble::new(ARRAY1_KEY))
}

/// Installs the victim's data, tags and protected ranges into a freshly
/// built system.
pub fn install_victim(sys: &mut System) {
    let mem = sys.mem_mut();
    mem.write_arch(VirtAddr::new(SIZE_ADDR), 8, 8); // ARRAY1_SIZE = 8
    mem.write_arch(VirtAddr::new(ARRAY1), 1, 1); // array1[0] = 1
    mem.write_arch(VirtAddr::new(SECRET_ADDR), 1, SECRET);
    mem.write_arch(VirtAddr::new(BENIGN), 1, BENIGN_VAL);
    mem.tags.set_range(VirtAddr::new(ARRAY1), 16, TagNibble::new(ARRAY1_KEY));
    mem.tags.set_range(VirtAddr::new(SECRET_ADDR), 16, TagNibble::new(SECRET_KEY));
    mem.add_protected_range(PROT_BASE, PROT_LEN);
}

/// The probe line an attack lights up when the secret leaks.
pub fn secret_probe_line() -> VirtAddr {
    VirtAddr::new(PROBE + (SECRET << 6))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alias_shares_low_bits_with_victim_slot() {
        assert_eq!(PROT_ALIAS & 0xFFF, VICTIM_SLOT & 0xFFF);
        assert_ne!(PROT_ALIAS, VICTIM_SLOT);
        assert!((PROT_BASE..PROT_BASE + PROT_LEN).contains(&PROT_ALIAS));
    }

    #[test]
    fn probe_lines_are_distinct() {
        // The benign training value and the secret must map to different
        // probe lines, or the oracle would false-positive.
        assert_ne!(BENIGN_VAL << 6 >> 6 << 6, SECRET << 6);
        assert_ne!((1u64) << 6, SECRET << 6); // array1[0] = 1
    }

    #[test]
    fn pointer_helpers_carry_expected_keys() {
        assert_eq!(secret_ptr_valid().key().value(), SECRET_KEY);
        assert_eq!(secret_ptr_violating().key().value(), ARRAY1_KEY);
        assert_eq!(secret_ptr_valid().untagged().raw(), SECRET_ADDR);
    }
}
