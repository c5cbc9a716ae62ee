//! The bulk GC migration path (one vectorized `copy_pages` call per
//! destination block) must be observationally identical to the per-page
//! migrate loop it replaced — op for op, counter for counter, fault draw
//! for fault draw. Debug builds check that inside `collect_block` itself:
//! every collection is replayed on a cloned shadow FTL through the
//! per-page reference loop and the two states are compared field for
//! field. These tests drive seeded op streams (writes under GC pressure,
//! trims, budgeted BGC, wear-level sweeps) with wear-dependent fault
//! injection active, so that oracle fires on every kind of collection,
//! and assert that collections really happened.

use jitgc_ftl::{Ftl, FtlConfig, GreedySelector, Lpn};
use jitgc_nand::FaultConfig;
use jitgc_sim::{SimDuration, SimRng, SimTime};

const USER_PAGES: u64 = 64;

fn ftl_with(fault: Option<FaultConfig>, endurance: u64) -> Ftl {
    let mut builder = FtlConfig::builder()
        .user_pages(USER_PAGES)
        .op_permille(250)
        .pages_per_block(8)
        .gc_reserve_blocks(2)
        .endurance_limit(endurance);
    if let Some(fault) = fault {
        builder = builder.fault(fault);
    }
    Ftl::new(builder.build(), Box::new(GreedySelector))
}

/// Runs a seeded op mix: writes under GC pressure, trims, budgeted BGC
/// and wear-level sweeps. Op results are not inspected — errors on the
/// graceful end-of-life paths are expected; the oracle asserts inside.
fn drive(ftl: &mut Ftl, seed: u64, steps: u64) {
    let mut rng = SimRng::seed(seed);
    for t in 1..=steps {
        let now = SimTime::from_millis(t);
        match rng.range_u64(0, 12) {
            0 => {
                let _ = ftl.trim(Lpn(rng.range_u64(0, USER_PAGES)), now);
            }
            1 => {
                let budget = SimDuration::from_millis(rng.range_u64(1, 50));
                ftl.background_collect(now, budget, None);
            }
            2 => {
                let _ = ftl.wear_level(now);
            }
            _ => {
                let _ = ftl.host_write(Lpn(rng.range_u64(0, USER_PAGES)), now);
            }
        }
    }
}

fn assert_equivalent(fault: Option<FaultConfig>, endurance: u64, seed: u64) {
    let mut ftl = ftl_with(fault, endurance);
    drive(&mut ftl, seed, 400);
    let stats = ftl.stats();
    assert!(
        stats.gc_pages_migrated > 0
            && stats.fgc_blocks + stats.bgc_blocks + stats.wear_level_blocks > 0,
        "op seed {seed} never collected a block, so the oracle never ran: {stats:?}"
    );
}

/// Fault-free device: the easy case, but it exercises the chunked
/// `copy_pages` resume protocol across GC-block boundaries.
#[test]
fn bulk_equals_looped_without_faults() {
    for seed in [1, 7, 42] {
        assert_equivalent(None, 1_000, seed);
    }
}

/// Active fault injection: read failures, program retries, and erase
/// retirements all land mid-migration, so the RNG stream position after
/// every victim is part of the identity — same seed, same retirements,
/// same degrade-event timeline on both paths.
#[test]
fn bulk_equals_looped_under_active_faults() {
    let fault = FaultConfig {
        seed: 9,
        program_rate: 0.08,
        erase_rate: 0.08,
        read_rate: 0.04,
        wear_scale: 10,
    };
    for seed in [3, 11, 29] {
        assert_equivalent(Some(fault), 8, seed);
    }
}

/// A tiny endurance budget drives both FTLs all the way to read-only:
/// the end-of-life trajectory (which blocks retire, when the pool
/// collapses) must be identical.
#[test]
fn bulk_equals_looped_through_end_of_life() {
    let fault = FaultConfig {
        seed: 5,
        program_rate: 0.15,
        erase_rate: 0.15,
        read_rate: 0.05,
        wear_scale: 6,
    };
    for seed in [2, 13] {
        assert_equivalent(Some(fault), 4, seed);
    }
}
