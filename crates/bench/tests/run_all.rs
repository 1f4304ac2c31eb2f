//! `run_all` refuses a name it does not know before anything runs.

use qrec_bench::experiments::EXPERIMENTS;
use std::process::Command;

#[test]
fn an_unknown_name_exits_2_lists_the_valid_names_and_runs_nothing() {
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["exp_table2", "exp_table4"])
        .output()
        .expect("launch run_all");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("experiment exp_table4;"), "{stderr}");
    assert_eq!(EXPERIMENTS.len(), 13);
    for (name, _) in EXPERIMENTS {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
    // Neither the datasets nor the valid `exp_table2` ran.
    assert!(!stderr.contains("datasets generated"), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
}
