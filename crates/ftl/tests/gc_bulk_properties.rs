#![cfg(feature = "proptest")]

//! Property-based version of `gc_bulk_equivalence`: for *arbitrary* op
//! streams and fault-rate corners, every bulk GC collection matches the
//! per-page reference loop (debug builds replay each one on a shadow FTL
//! inside `collect_block` and assert it), and the observable trace — op
//! results, stats, retirements, degrade-event timeline — is a pure
//! function of the op stream and fault seed.

use jitgc_ftl::{Ftl, FtlConfig, FtlError, GreedySelector, Lpn};
use jitgc_nand::FaultConfig;
use jitgc_sim::{SimDuration, SimTime};
use proptest::prelude::*;

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

#[derive(Debug, Clone)]
enum Op {
    Write(u64),
    Trim(u64),
    Bgc(u64),
    WearLevel,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..USER_PAGES).prop_map(Op::Write),
        1 => (0..USER_PAGES).prop_map(Op::Trim),
        1 => (1..50u64).prop_map(Op::Bgc),
        1 => Just(Op::WearLevel),
    ]
}

/// Drives one op sequence, tolerating the graceful-EOL error paths, and
/// returns the full observable trace.
fn drive(ftl: &mut Ftl, ops: &[Op]) -> Vec<String> {
    let mut t = 0u64;
    let mut trace = Vec::with_capacity(ops.len() + 8);
    for op in ops {
        t += 1;
        let now = SimTime::from_millis(t);
        let entry = match op {
            Op::Write(lpn) => match ftl.host_write(Lpn(*lpn), now) {
                Ok(o) => format!("{o:?}"),
                Err(FtlError::ReadOnly) => "read-only".into(),
                Err(e) => panic!("unexpected write error: {e}"),
            },
            Op::Trim(lpn) => format!("{:?}", ftl.trim(Lpn(*lpn), now)),
            Op::Bgc(ms) => format!(
                "{:?}",
                ftl.background_collect(now, SimDuration::from_millis(*ms), None)
            ),
            Op::WearLevel => format!("{:?}", ftl.wear_level(now)),
        };
        trace.push(entry);
    }
    trace.push(format!("{:?}", ftl.stats()));
    trace.push(format!("{:?}", ftl.device().stats()));
    trace.push(format!("{:?}", ftl.degrade_events()));
    trace.push(format!(
        "retired={} read_only={}",
        ftl.retired_pages(),
        ftl.read_only()
    ));
    for lpn in 0..USER_PAGES {
        trace.push(format!("{:?}", ftl.lookup(Lpn(lpn))));
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bulk GC migration matches the per-page oracle under any op stream
    /// and any fault configuration, all the way to end of life.
    #[test]
    fn bulk_migration_is_equivalent_to_looped(
        ops in proptest::collection::vec(op_strategy(), 1..300),
        seed in 0..u64::MAX,
        program_permille in 0..200u32,
        erase_permille in 0..200u32,
        read_permille in 0..200u32,
    ) {
        let fault = FaultConfig {
            seed,
            program_rate: f64::from(program_permille) / 1_000.0,
            erase_rate: f64::from(erase_permille) / 1_000.0,
            read_rate: f64::from(read_permille) / 1_000.0,
            wear_scale: 10,
        };
        let first = drive(&mut ftl_with(Some(fault), 8), &ops);
        prop_assert_eq!(first, drive(&mut ftl_with(Some(fault), 8), &ops));
    }
}
