//! Command-line contract: bad arguments exit with status 2 and print no
//! result.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &[][..],
        &["--workload", "no_such_workload"],
        &["--workload", "gups_shift", "--no-such-flag"],
        &["--workload", "gups_shift", "--trace", "yes"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
            .args(args)
            .output()
            .expect("simbench runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
