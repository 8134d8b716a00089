//! The crash campaign: Table 1's experimental procedure.
//!
//! For each (fault type × system) cell: boot the system, run memTest to
//! build up state, inject 20 faults, keep running until the system crashes
//! (or discard the run if it survives the watchdog budget — the paper
//! discards about half), reboot the surviving artifacts (cold boot +
//! fsck for the disk-based system, warm reboot for Rio), replay memTest to
//! the crash point, and compare.
//!
//! The paper's full campaign is 13 × 3 × 50 = 1,950 independent crash
//! runs. Every trial's seed is a pure function of its grid coordinates
//! ([`trial_seed`]), and each trial owns its whole simulated machine, so
//! the campaign is embarrassingly parallel: [`run_campaign_parallel`]
//! runs it on the shared campaign engine, which distributes
//! *individual trials* over worker threads and merges outcomes in attempt
//! order, producing byte-identical output at any thread count.

use crate::checkpoint::TrialCheckpoint;
use crate::driver::{drive, workload_seed, PreparedTrial, TrialObservation, TrialVerdict};
use crate::engine::{self, Campaign};
use crate::inject::FaultType;
use rio_core::RioMode;
use rio_det::derive_seed3;
use rio_kernel::Policy;
use rio_workloads::MemTestConfig;
use std::collections::BTreeSet;

/// The three systems of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SystemKind {
    /// Write-through disk file system (fsync after every write; cold boot).
    DiskBased,
    /// Rio without protection (warm reboot only).
    RioWithoutProtection,
    /// Rio with protection.
    RioWithProtection,
}

impl SystemKind {
    /// All three, in Table 1 column order.
    pub const ALL: [SystemKind; 3] = [
        SystemKind::DiskBased,
        SystemKind::RioWithoutProtection,
        SystemKind::RioWithProtection,
    ];

    /// Column label.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::DiskBased => "Disk-Based",
            SystemKind::RioWithoutProtection => "Rio without Protection",
            SystemKind::RioWithProtection => "Rio with Protection",
        }
    }

    /// Stable machine-readable name (CLI arguments, JSON keys).
    pub fn slug(&self) -> &'static str {
        match self {
            SystemKind::DiskBased => "disk",
            SystemKind::RioWithoutProtection => "rio_noprot",
            SystemKind::RioWithProtection => "rio_prot",
        }
    }

    /// Parses a [`SystemKind::slug`] back to the system kind.
    pub fn from_slug(s: &str) -> Option<SystemKind> {
        SystemKind::ALL.iter().copied().find(|k| k.slug() == s)
    }

    /// The kernel policy this system runs.
    pub fn policy(&self) -> Policy {
        match self {
            SystemKind::DiskBased => Policy::disk_write_through(),
            SystemKind::RioWithoutProtection => Policy::rio(RioMode::Unprotected),
            SystemKind::RioWithProtection => Policy::rio(RioMode::Protected),
        }
    }

    /// The memTest configuration this system uses (the disk-based system
    /// fsyncs every write, per Table 1's note).
    pub fn memtest_config(&self, seed: u64) -> MemTestConfig {
        match self {
            SystemKind::DiskBased => MemTestConfig::small_write_through(seed),
            _ => MemTestConfig::small(seed),
        }
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How one trial ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrialOutcome {
    /// The system survived the watchdog budget: discarded, like the
    /// paper's ~half of runs that did not crash within ten minutes.
    NoCrash,
    /// The fault wedged the workload without a kernel crash (an op failed
    /// non-fatally); discarded.
    Wedged,
    /// The system crashed and was examined.
    Crashed {
        /// Whether any file data was corrupted or lost.
        corrupted: bool,
        /// Number of damaged files/directories.
        damage: usize,
        /// Whether the checksum mechanism (registry CRC at warm reboot)
        /// detected damage.
        checksum_detected: bool,
        /// Whether Rio's protection trapped the wild store (the §3.3
        /// "protection mechanism was invoked" events).
        protection_trap: bool,
        /// Stable crash message (for the unique-messages statistic).
        message: String,
        /// memTest ops completed before the crash.
        ops_before_crash: u64,
        /// Torn data blocks fsck saw at reboot.
        torn_data_blocks: u64,
        /// Registry entries the warm-reboot scan quarantined (bad magic /
        /// inconsistent mapping / CRC mismatch).
        quarantined: u64,
    },
}

/// One cell of Table 1 after `trials` runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// Fault type (row).
    pub fault: FaultType,
    /// System (column group).
    pub system: SystemKind,
    /// Runs that crashed (the paper's 50 per cell).
    pub crashes: u64,
    /// Crashed runs with corrupted/lost file data.
    pub corruptions: u64,
    /// Runs discarded (no crash within budget, or wedged).
    pub discarded: u64,
    /// Crashes where protection trapped the store.
    pub protection_traps: u64,
    /// Torn data blocks fsck saw across the cell's reboots.
    pub torn_data_blocks: u64,
    /// Registry entries quarantined by the warm-reboot scan across the
    /// cell's reboots.
    pub quarantined: u64,
    /// Distinct crash messages seen.
    pub messages: BTreeSet<String>,
}

impl CellResult {
    /// A cell with no trials folded in.
    pub fn empty(fault: FaultType, system: SystemKind) -> CellResult {
        CellResult {
            fault,
            system,
            crashes: 0,
            corruptions: 0,
            discarded: 0,
            protection_traps: 0,
            torn_data_blocks: 0,
            quarantined: 0,
            messages: BTreeSet::new(),
        }
    }

    /// Folds one trial outcome into the cell counters.
    pub fn absorb(&mut self, outcome: TrialOutcome) {
        match outcome {
            TrialOutcome::NoCrash | TrialOutcome::Wedged => self.discarded += 1,
            TrialOutcome::Crashed {
                corrupted,
                protection_trap,
                message,
                torn_data_blocks,
                quarantined,
                ..
            } => {
                self.crashes += 1;
                if corrupted {
                    self.corruptions += 1;
                }
                if protection_trap {
                    self.protection_traps += 1;
                }
                self.torn_data_blocks += torn_data_blocks;
                self.quarantined += quarantined;
                self.messages.insert(message);
            }
        }
    }
}

/// The full campaign result.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// One cell per (fault, system).
    pub cells: Vec<CellResult>,
    /// Target crashes per cell.
    pub trials_per_cell: u64,
}

impl CampaignResult {
    /// Total crashes for a system across all fault types.
    pub fn total_crashes(&self, system: SystemKind) -> u64 {
        self.cells
            .iter()
            .filter(|c| c.system == system)
            .map(|c| c.crashes)
            .sum()
    }

    /// Total corruptions for a system.
    pub fn total_corruptions(&self, system: SystemKind) -> u64 {
        self.cells
            .iter()
            .filter(|c| c.system == system)
            .map(|c| c.corruptions)
            .sum()
    }

    /// Total protection-trap saves for a system.
    pub fn total_protection_traps(&self, system: SystemKind) -> u64 {
        self.cells
            .iter()
            .filter(|c| c.system == system)
            .map(|c| c.protection_traps)
            .sum()
    }

    /// Total torn data blocks fsck saw for a system's reboots.
    pub fn total_torn(&self, system: SystemKind) -> u64 {
        self.cells
            .iter()
            .filter(|c| c.system == system)
            .map(|c| c.torn_data_blocks)
            .sum()
    }

    /// Total registry entries quarantined by a system's warm-reboot scans.
    pub fn total_quarantined(&self, system: SystemKind) -> u64 {
        self.cells
            .iter()
            .filter(|c| c.system == system)
            .map(|c| c.quarantined)
            .sum()
    }

    /// Distinct crash messages across the whole campaign.
    pub fn unique_messages(&self) -> BTreeSet<String> {
        let mut all = BTreeSet::new();
        for c in &self.cells {
            all.extend(c.messages.iter().cloned());
        }
        all
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Crashed runs to collect per cell (the paper's 50).
    pub trials_per_cell: u64,
    /// Base seed.
    pub seed: u64,
    /// memTest ops to run before injection (builds up the file set).
    pub warmup_ops: u64,
    /// memTest ops allowed after injection before the run is discarded
    /// (the paper's ten-minute watchdog).
    pub watchdog_ops: u64,
    /// Cap on attempts per crash collected (discarded runs cost time).
    pub max_attempts_factor: u64,
}

impl CampaignConfig {
    /// A fast configuration for tests and CI.
    pub fn quick(seed: u64) -> Self {
        CampaignConfig {
            trials_per_cell: 3,
            seed,
            warmup_ops: 40,
            watchdog_ops: 400,
            max_attempts_factor: 6,
        }
    }

    /// The paper's scale: 50 crashes per cell.
    pub fn paper(seed: u64) -> Self {
        CampaignConfig {
            trials_per_cell: 50,
            seed,
            warmup_ops: 60,
            watchdog_ops: 800,
            max_attempts_factor: 8,
        }
    }

    /// Attempts per cell before a cell that has not met its quota stops.
    pub fn max_attempts(&self) -> u64 {
        self.trials_per_cell * self.max_attempts_factor
    }
}

/// The seed of one trial: a pure function of the campaign seed and the
/// trial's grid coordinates.
///
/// Because seeds are *derived* (stream-split) rather than drawn from a
/// sequentially reseeded generator, dropping, reordering, or parallelizing
/// trials never shifts any other trial's fault sites.
pub fn trial_seed(campaign_seed: u64, fault: FaultType, system: SystemKind, attempt: u64) -> u64 {
    derive_seed3(campaign_seed, fault as u64, system as u64, attempt)
}

/// Maps a driver observation onto the campaign's outcome enum.
fn outcome_from(obs: TrialObservation) -> TrialOutcome {
    match obs.verdict {
        TrialVerdict::Wedged => TrialOutcome::Wedged,
        TrialVerdict::NoCrash => TrialOutcome::NoCrash,
        TrialVerdict::Crashed => TrialOutcome::Crashed {
            corrupted: obs.damage > 0,
            damage: obs.damage,
            checksum_detected: obs.checksum_detected,
            protection_trap: obs.protection_trap,
            message: obs.message.unwrap_or_default(),
            ops_before_crash: obs.ops_before_crash,
            torn_data_blocks: obs.torn_data_blocks,
            quarantined: obs.quarantined,
        },
    }
}

/// Runs one trial: boot, warm up, inject, run to crash, reboot, verify.
///
/// The trial owns its entire simulated machine (CPU, physical memory,
/// disk); nothing is shared with other trials, which is what makes the
/// campaign safely parallel.
///
/// Legacy single-seed entry point: the one seed feeds both streams exactly
/// as it always did (workload = `seed ^ 0x5EED`, injection = `seed`), so
/// results are bit-compatible with the pre-checkpoint campaign. Campaigns
/// use the split [`workload_seed`]/[`trial_seed`] streams instead so that
/// trials can share a steady-state checkpoint.
pub fn run_trial(
    system: SystemKind,
    fault: FaultType,
    seed: u64,
    warmup_ops: u64,
    watchdog_ops: u64,
) -> TrialOutcome {
    let prepared = PreparedTrial::prepare(system, seed ^ 0x5EED, warmup_ops);
    outcome_from(drive(prepared, fault, seed, watchdog_ops))
}

/// Runs one trial forked from a steady-state checkpoint, drawing faults
/// from `inject_seed`. Byte-identical to a scratch trial prepared with the
/// same workload seed and warmup.
pub fn run_trial_from(
    checkpoint: &TrialCheckpoint,
    fault: FaultType,
    inject_seed: u64,
    watchdog_ops: u64,
) -> TrialOutcome {
    outcome_from(drive(checkpoint.fork(), fault, inject_seed, watchdog_ops))
}

/// The Table 1 grid as a campaign: cells share one steady-state
/// checkpoint per system and stop at their crash quota.
struct Table1<'a>(&'a CampaignConfig);

impl Campaign for Table1<'_> {
    type Coord = (FaultType, SystemKind);
    type Key = SystemKind;
    type Checkpoint = TrialCheckpoint;
    type Outcome = TrialOutcome;
    type Cell = CellResult;

    /// Row-major (fault, system) order.
    fn grid(&self) -> Vec<(FaultType, SystemKind)> {
        FaultType::ALL
            .iter()
            .flat_map(|&f| SystemKind::ALL.iter().map(move |&s| (f, s)))
            .collect()
    }

    fn max_attempts(&self) -> u64 {
        self.0.max_attempts()
    }

    fn key(&self, &(_, system): &(FaultType, SystemKind)) -> SystemKind {
        system
    }

    fn capture(&self, &(_, system): &(FaultType, SystemKind)) -> TrialCheckpoint {
        TrialCheckpoint::capture(system, workload_seed(self.0.seed, system), self.0.warmup_ops)
    }

    fn trial(
        &self,
        checkpoint: &TrialCheckpoint,
        &(fault, system): &(FaultType, SystemKind),
        attempt: u64,
    ) -> TrialOutcome {
        let inj = trial_seed(self.0.seed, fault, system, attempt);
        run_trial_from(checkpoint, fault, inj, self.0.watchdog_ops)
    }

    /// A corrupted crash carrying the panic text, so the unique-message
    /// count and a forensic trace agree.
    fn panicked(&self, _: &(FaultType, SystemKind), text: String) -> TrialOutcome {
        TrialOutcome::Crashed {
            corrupted: true,
            damage: usize::MAX,
            checksum_detected: false,
            protection_trap: false,
            message: text,
            ops_before_crash: 0,
            torn_data_blocks: 0,
            quarantined: 0,
        }
    }

    fn verdict(&self, outcome: &TrialOutcome) -> u64 {
        match outcome {
            TrialOutcome::NoCrash => 0,
            TrialOutcome::Wedged => 1,
            TrialOutcome::Crashed { corrupted, .. } => 2 + u64::from(*corrupted),
        }
    }

    fn cell(&self, &(fault, system): &(FaultType, SystemKind)) -> CellResult {
        CellResult::empty(fault, system)
    }

    fn absorb(&self, cell: &mut CellResult, outcome: TrialOutcome) -> bool {
        cell.absorb(outcome);
        cell.crashes >= self.0.trials_per_cell
    }
}

/// Runs the campaign with individual *trials* distributed over `threads`
/// workers (no shared machine state — every trial forks its own kernel,
/// memory, and disk from its cell's checkpoint).
///
/// Results are byte-identical for any `threads`: every trial's seed is a
/// pure function of its coordinates ([`trial_seed`]), and outcomes are
/// merged in attempt order under the serial stopping rule (a cell stops
/// at its crash quota or its attempt cap), so execution order cannot leak
/// into the report.
pub fn run_campaign_parallel(cfg: &CampaignConfig, threads: usize) -> CampaignResult {
    CampaignResult {
        cells: engine::run(&Table1(cfg), threads),
        trials_per_cell: cfg.trials_per_cell,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_slugs_round_trip() {
        for s in SystemKind::ALL {
            assert_eq!(SystemKind::from_slug(s.slug()), Some(s));
        }
        assert_eq!(SystemKind::from_slug("floppy"), None);
    }

    #[test]
    fn copy_overrun_trial_crashes_and_examines() {
        // Copy overrun fires reliably; at least one of a few seeds must
        // produce a crashed, examined trial on each system.
        for system in SystemKind::ALL {
            let mut got_crash = false;
            for seed in 0..6 {
                if let TrialOutcome::Crashed { .. } =
                    run_trial(system, FaultType::CopyOverrun, seed, 30, 400)
                {
                    got_crash = true;
                    break;
                }
            }
            assert!(got_crash, "no crash for {system}");
        }
    }

    #[test]
    fn synchronization_trials_crash_without_corruption() {
        // The paper's synchronization row is blank: crashes, no corruption.
        let mut crashes = 0;
        let mut corruptions = 0;
        for seed in 0..5 {
            if let TrialOutcome::Crashed { corrupted, .. } = run_trial(
                SystemKind::RioWithProtection,
                FaultType::Synchronization,
                seed,
                30,
                400,
            ) {
                crashes += 1;
                if corrupted {
                    corruptions += 1;
                }
            }
        }
        assert!(crashes >= 2, "lock skips should crash ({crashes})");
        assert_eq!(corruptions, 0, "lock skips must not corrupt");
    }

    #[test]
    fn stack_flips_mostly_discard() {
        // 64 KB of stack, 32 live bytes: most flips hit nothing.
        let mut discards = 0;
        for seed in 0..4 {
            match run_trial(
                SystemKind::RioWithProtection,
                FaultType::KernelStack,
                seed,
                20,
                150,
            ) {
                TrialOutcome::NoCrash | TrialOutcome::Wedged => discards += 1,
                TrialOutcome::Crashed { .. } => {}
            }
        }
        assert!(discards >= 2, "stack flips rarely hit ({discards})");
    }

    #[test]
    fn trials_are_deterministic() {
        let a = run_trial(SystemKind::RioWithoutProtection, FaultType::KernelText, 11, 25, 200);
        let b = run_trial(SystemKind::RioWithoutProtection, FaultType::KernelText, 11, 25, 200);
        assert_eq!(a, b);
    }

    #[test]
    fn trial_seeds_are_independent_of_other_trials() {
        // Dropping or reordering trials must not shift later trials'
        // seeds: each seed depends only on its own coordinates.
        let s = trial_seed(1996, FaultType::Pointer, SystemKind::DiskBased, 17);
        assert_eq!(
            s,
            trial_seed(1996, FaultType::Pointer, SystemKind::DiskBased, 17)
        );
        assert_ne!(
            s,
            trial_seed(1996, FaultType::Pointer, SystemKind::DiskBased, 18)
        );
        assert_ne!(
            s,
            trial_seed(1996, FaultType::Pointer, SystemKind::RioWithProtection, 17)
        );
        assert_ne!(
            s,
            trial_seed(1996, FaultType::Allocation, SystemKind::DiskBased, 17)
        );
    }

    fn tiny(seed: u64) -> CampaignConfig {
        CampaignConfig {
            trials_per_cell: 1,
            seed,
            warmup_ops: 15,
            watchdog_ops: 120,
            max_attempts_factor: 2,
        }
    }

    #[test]
    fn mini_campaign_produces_full_grid() {
        let result = run_campaign_parallel(&tiny(99), 1);
        assert_eq!(result.cells.len(), 13 * 3);
        // At least some crashes were collected somewhere.
        let total: u64 = SystemKind::ALL
            .iter()
            .map(|&s| result.total_crashes(s))
            .sum();
        assert!(total > 0);
        assert!(!result.unique_messages().is_empty());
    }

    #[test]
    fn engine_matches_the_scratch_reference_at_any_thread_count() {
        let cfg = CampaignConfig {
            trials_per_cell: 2,
            max_attempts_factor: 3,
            ..tiny(7)
        };
        let reference = engine::scratch(&Table1(&cfg));
        for threads in [1, 4] {
            assert_eq!(run_campaign_parallel(&cfg, threads).cells, reference, "{threads} threads");
        }
    }

    #[test]
    fn panicking_trial_is_contained() {
        let cfg = tiny(41);
        let target = 5; // second fault row, Rio with protection
        engine::tests::panic_is_contained(&Table1(&cfg), target, |c| {
            c.corruptions >= 1 && c.messages.contains("harness panic: injected harness fault")
        });
    }
}
