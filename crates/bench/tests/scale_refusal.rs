//! The `experiments` binary refuses a scale no dataset can be generated at,
//! with an error and exit code 1 before it runs anything, instead of
//! panicking in the generator or aborting on a huge allocation.

use std::process::Command;

#[test]
fn experiments_refuses_scales_outside_the_generators_range() {
    for scale in ["nan", "inf", "0", "1001"] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["table4-2", "-s", scale])
            .output()
            .expect("the experiments binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "-s {scale}: {stderr}");
        assert!(
            stderr.contains("error: scale must be in (0, 1000]"),
            "-s {scale}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "-s {scale}: {stderr}");
        assert!(!stderr.contains(">> table4-2"), "-s {scale} ran: {stderr}");
    }
}
