//! The `experiments` command line: an unknown name fails before anything
//! runs and says where persisted numbers come from; a known one prints
//! its table.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .env("SNAP_SCALE", "8")
        .env("SNAP_THREADS", "1")
        .output()
        .expect("spawn experiments")
}

#[test]
fn unknown_experiment_exits_nonzero_and_lists_the_names() {
    // Removed names fail like typos: `benchmark/` measures serving and
    // connectivity.
    for name in ["fig12", "serve", "connectivity"] {
        let out = experiments(&["fig7", name]);
        assert!(!out.status.success(), "`{name}` must fail");
        assert!(out.stdout.is_empty(), "`{name}`: nothing may run first");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown experiment: {name}")),
            "{err}"
        );
        for valid in ["fig11", "parallel", "views", "all"] {
            assert!(err.contains(valid), "`{valid}` missing from: {err}");
        }
        assert!(err.contains("benchmark/"), "{err}");
    }
}

#[test]
fn fig7_prints_its_table() {
    let out = experiments(&["fig7"]);
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Figure 7"), "{text}");
}
