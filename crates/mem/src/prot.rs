//! Per-page write protection and the TLB-bypass controls of §2.1.
//!
//! The protection table models the subset of the page table / TLB state that
//! matters to Rio: one write-permission bit per physical page, plus two
//! machine-wide switches:
//!
//! * `kseg_through_tlb` — the Alpha 21064 ABOX-register bit that forces
//!   physical (KSEG) addresses through the TLB, so they obey the permission
//!   bits. Off by default (stock Digital Unix), on when Rio protection is
//!   enabled.
//! * [`ProtectionMode::CodePatching`] — the software fallback for CPUs that
//!   cannot map physical addresses through the TLB: every kernel store is
//!   preceded by an inserted check. Functionally equivalent, 20–50% slower;
//!   the bus charges a per-store check cost in this mode so the ablation
//!   bench can reproduce that band.
//!
//! The permission bits are a bitset indexed by page number — one bit per
//! page, like the hardware's — so the per-store check every interpreted
//! store pays in a protected mode is a shift and a mask rather than a hash
//! lookup.

use crate::page::PageNum;

/// How stores are checked against file-cache protection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProtectionMode {
    /// No protection at all: permission bits are ignored (stock kernel, and
    /// the "Rio without protection" configuration).
    #[default]
    Off,
    /// Hardware protection: virtual stores honour permission bits; KSEG
    /// stores honour them only if `kseg_through_tlb` is also set.
    Hardware,
    /// Software fault isolation: like `Hardware` with `kseg_through_tlb`,
    /// but every store pays an extra check cost (code patching, \[Wahbe93\]).
    CodePatching,
}

impl std::fmt::Display for ProtectionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ProtectionMode::Off => "off",
            ProtectionMode::Hardware => "hardware",
            ProtectionMode::CodePatching => "code-patching",
        };
        f.write_str(s)
    }
}

/// The machine's protection state: permission bits plus bypass switches.
///
/// # Example
///
/// ```
/// use rio_mem::{ProtectionTable, ProtectionMode, PageNum};
///
/// let mut prot = ProtectionTable::new(ProtectionMode::Hardware, true);
/// let pn = PageNum(9);
/// prot.protect(pn);
/// assert!(prot.store_would_trap(pn, /*kseg=*/ false));
/// prot.unprotect(pn);
/// assert!(!prot.store_would_trap(pn, false));
/// ```
#[derive(Debug, Clone)]
pub struct ProtectionTable {
    mode: ProtectionMode,
    kseg_through_tlb: bool,
    /// Bit `pn % 64` of word `pn / 64` is set iff page `pn` is protected;
    /// grows on demand, so pages past the end are unprotected.
    bits: Vec<u64>,
    /// Number of set bits.
    count: usize,
}

impl ProtectionTable {
    /// Creates a table with the given mode and KSEG policy and no pages
    /// protected yet.
    pub fn new(mode: ProtectionMode, kseg_through_tlb: bool) -> Self {
        ProtectionTable {
            mode,
            kseg_through_tlb,
            bits: Vec::new(),
            count: 0,
        }
    }

    /// A table that never traps (stock kernel).
    pub fn disabled() -> Self {
        ProtectionTable::new(ProtectionMode::Off, false)
    }

    /// Current protection mode.
    pub fn mode(&self) -> ProtectionMode {
        self.mode
    }

    /// Whether KSEG (physical) addresses are forced through the TLB.
    pub fn kseg_through_tlb(&self) -> bool {
        self.kseg_through_tlb
    }

    /// Sets the KSEG-through-TLB bit (the ABOX trick).
    pub fn set_kseg_through_tlb(&mut self, on: bool) {
        self.kseg_through_tlb = on;
    }

    /// Changes the protection mode.
    pub fn set_mode(&mut self, mode: ProtectionMode) {
        self.mode = mode;
    }

    /// Clears the write-permission bit for a page (page becomes read-only).
    /// The bitset grows to the highest page ever protected, so `pn` should
    /// be a page of the machine's memory.
    pub fn protect(&mut self, pn: PageNum) {
        let (word, mask) = Self::bit(pn);
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        if self.bits[word] & mask == 0 {
            self.bits[word] |= mask;
            self.count += 1;
        }
    }

    /// Sets the write-permission bit for a page (page becomes writable).
    pub fn unprotect(&mut self, pn: PageNum) {
        let (word, mask) = Self::bit(pn);
        if let Some(w) = self.bits.get_mut(word) {
            if *w & mask != 0 {
                *w &= !mask;
                self.count -= 1;
            }
        }
    }

    /// Whether the page's permission bit denies writes.
    pub fn is_protected(&self, pn: PageNum) -> bool {
        let (word, mask) = Self::bit(pn);
        self.bits.get(word).is_some_and(|w| w & mask != 0)
    }

    /// Number of currently protected pages.
    pub fn protected_count(&self) -> usize {
        self.count
    }

    fn bit(pn: PageNum) -> (usize, u64) {
        ((pn.0 / 64) as usize, 1 << (pn.0 % 64))
    }

    /// Decides whether a store to `pn` via the given route traps.
    ///
    /// This is the heart of §2.1: a KSEG store bypasses the permission bits
    /// unless the machine maps KSEG through the TLB (hardware mode with the
    /// ABOX bit, or code patching which checks every store in software).
    pub fn store_would_trap(&self, pn: PageNum, kseg: bool) -> bool {
        match self.mode {
            ProtectionMode::Off => false,
            ProtectionMode::Hardware => {
                if kseg && !self.kseg_through_tlb {
                    false
                } else {
                    self.is_protected(pn)
                }
            }
            // Code patching checks every store in software regardless of the
            // address route.
            ProtectionMode::CodePatching => self.is_protected(pn),
        }
    }
}

impl Default for ProtectionTable {
    fn default() -> Self {
        ProtectionTable::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_mode_never_traps() {
        let mut p = ProtectionTable::disabled();
        p.protect(PageNum(1));
        assert!(!p.store_would_trap(PageNum(1), false));
        assert!(!p.store_would_trap(PageNum(1), true));
    }

    #[test]
    fn hardware_mode_traps_virtual_stores() {
        let mut p = ProtectionTable::new(ProtectionMode::Hardware, false);
        p.protect(PageNum(1));
        assert!(p.store_would_trap(PageNum(1), false));
        assert!(!p.store_would_trap(PageNum(2), false));
    }

    #[test]
    fn kseg_bypasses_unless_mapped_through_tlb() {
        let mut p = ProtectionTable::new(ProtectionMode::Hardware, false);
        p.protect(PageNum(1));
        // Without the ABOX bit, physical addresses slip past protection —
        // the vulnerability Rio closes.
        assert!(!p.store_would_trap(PageNum(1), true));
        p.set_kseg_through_tlb(true);
        assert!(p.store_would_trap(PageNum(1), true));
    }

    #[test]
    fn code_patching_checks_all_routes() {
        let mut p = ProtectionTable::new(ProtectionMode::CodePatching, false);
        p.protect(PageNum(1));
        assert!(p.store_would_trap(PageNum(1), false));
        assert!(p.store_would_trap(PageNum(1), true));
    }

    #[test]
    fn protect_unprotect_round_trip() {
        let mut p = ProtectionTable::new(ProtectionMode::Hardware, true);
        assert_eq!(p.protected_count(), 0);
        p.protect(PageNum(5));
        p.protect(PageNum(5)); // idempotent
        assert_eq!(p.protected_count(), 1);
        assert!(p.is_protected(PageNum(5)));
        p.unprotect(PageNum(5));
        assert!(!p.is_protected(PageNum(5)));
        assert_eq!(p.protected_count(), 0);
    }

    #[test]
    fn bitset_matches_a_set_model() {
        use rio_det::DetRng;
        use std::collections::BTreeSet;
        // Random protect/unprotect/query sequences over a page range that
        // straddles several bitset words (and pages far past the end).
        let mut rng = DetRng::seed_from_u64(0xB175E7);
        for _ in 0..50 {
            let mut table = ProtectionTable::new(ProtectionMode::Hardware, true);
            let mut model = BTreeSet::new();
            for _ in 0..400 {
                let pn = PageNum(if rng.gen_bool(0.05) {
                    rng.gen_range(0..100_000u64)
                } else {
                    rng.gen_range(0..300)
                });
                match rng.gen_range(0..3u32) {
                    0 => {
                        table.protect(pn);
                        model.insert(pn);
                    }
                    1 => {
                        table.unprotect(pn);
                        model.remove(&pn);
                    }
                    _ => {}
                }
                let q = PageNum(rng.gen_range(0..320));
                assert_eq!(table.is_protected(q), model.contains(&q), "{q}");
                assert_eq!(table.is_protected(pn), model.contains(&pn), "{pn}");
                assert_eq!(table.protected_count(), model.len());
            }
        }
    }

    #[test]
    fn display_modes() {
        assert_eq!(ProtectionMode::Off.to_string(), "off");
        assert_eq!(ProtectionMode::Hardware.to_string(), "hardware");
        assert_eq!(ProtectionMode::CodePatching.to_string(), "code-patching");
    }
}
