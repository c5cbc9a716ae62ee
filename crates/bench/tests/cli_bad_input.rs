//! Bad workload-rate flags are rejected with exit status 2 and a message
//! naming the flag, never by a panic (exit status 101) inside the
//! workload builder.

use std::process::Command;

#[test]
fn bad_rate_flags_exit_2_naming_the_flag() {
    for args in [
        &["--iops", "0"][..],
        &["--iops", "inf"],
        &["--burst", "0.5"],
        &["--seconds", "0"],
        // Finite per device, but the array scales it past f64::MAX.
        &["--iops", "1e308", "--array", "4"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ssdsim"))
            .args(args)
            .arg("--json")
            .output()
            .expect("ssdsim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "ssdsim {args:?} must exit 2; stderr: {stderr}"
        );
        assert!(
            stderr.contains(args[0]),
            "ssdsim {args:?} must name {}; stderr: {stderr}",
            args[0]
        );
    }
}
