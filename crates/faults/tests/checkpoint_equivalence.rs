//! Property test for the checkpoint-fork trial engine: a trial forked from
//! a cell's shared steady-state checkpoint is observationally identical to
//! one whose machine was booted and warmed up from scratch — across random
//! campaign coordinates, and no matter how many forks the checkpoint has
//! already served.
//!
//! The scratch-boot path survives only here, as the reference: the
//! ignored Table 1 gate below renders the smoke-scale table both through
//! the campaign engine and through a serial scratch loop and compares the
//! bytes (verify.sh runs it with `--release -- --ignored`).

use rio_det::proptest_lite::{check, Config, Gen};
use rio_faults::campaign::trial_seed;
use rio_faults::{
    drive, run_campaign_parallel, run_trial_from, workload_seed, CampaignConfig, CampaignResult,
    CellResult, FaultType, PreparedTrial, SystemKind, TrialCheckpoint,
};
use rio_harness::{render_table1, Table1Report};

#[test]
fn forked_trials_match_scratch_at_random_coordinates() {
    check(
        "checkpoint fork == scratch boot",
        Config::with_cases(10),
        |g: &mut Gen| {
            let fault = FaultType::ALL[g.in_range(0..FaultType::ALL.len())];
            let system = SystemKind::ALL[g.in_range(0..SystemKind::ALL.len())];
            let attempt: u64 = g.in_range(0..8u64);
            let campaign_seed = g.u64();
            let (warmup, watchdog) = (20, 150);

            let wl = workload_seed(campaign_seed, system);
            let inj = trial_seed(campaign_seed, fault, system, attempt);

            // The machine states themselves: fresh boot vs fork.
            let scratch = drive(PreparedTrial::prepare(system, wl, warmup), fault, inj, watchdog);
            let shared = TrialCheckpoint::capture(system, wl, warmup);
            let forked = drive(shared.fork(), fault, inj, watchdog);
            rio_det::pt_assert_eq!(scratch, forked);

            // The checkpoint is reusable: a second fork after the first
            // trial ran (and crashed its copy) sees untouched state.
            let again = run_trial_from(&shared, fault, inj, watchdog);
            let reference = run_trial_from(&TrialCheckpoint::capture(system, wl, warmup), fault, inj, watchdog);
            rio_det::pt_assert_eq!(again, reference);
            Ok(())
        },
    );
}

/// Table 1 the way the campaign engine defines it, without the engine:
/// cells in order, attempts in order until the crash quota or the cap,
/// every trial booted and warmed up from scratch.
fn scratch_campaign(cfg: &CampaignConfig) -> CampaignResult {
    let mut cells = Vec::new();
    for fault in FaultType::ALL {
        for system in SystemKind::ALL {
            let wl = workload_seed(cfg.seed, system);
            let mut cell = CellResult::empty(fault, system);
            for attempt in 0..cfg.max_attempts() {
                if cell.crashes >= cfg.trials_per_cell {
                    break;
                }
                let scratch = TrialCheckpoint::capture(system, wl, cfg.warmup_ops);
                let inj = trial_seed(cfg.seed, fault, system, attempt);
                cell.absorb(run_trial_from(&scratch, fault, inj, cfg.watchdog_ops));
            }
            cells.push(cell);
        }
    }
    CampaignResult {
        cells,
        trials_per_cell: cfg.trials_per_cell,
    }
}

#[test]
#[ignore = "paper-config smoke (minutes in debug); verify.sh runs it in release"]
fn table1_smoke_renders_identically_from_checkpoints_and_from_scratch() {
    let cfg = CampaignConfig {
        trials_per_cell: 3,
        ..CampaignConfig::paper(1996)
    };
    let engine = render_table1(&Table1Report::new(run_campaign_parallel(&cfg, 2)));
    let scratch = render_table1(&Table1Report::new(scratch_campaign(&cfg)));
    assert_eq!(engine, scratch);
    assert!(engine.contains("95% confidence intervals (Wilson)"));
}
