//! A reader that goes away early (`apex … | head -1`) ends `apex`
//! quietly: every report goes through one writer that treats a broken
//! pipe as the end of the run, never as a panic (exit 101).

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

use apex_lab::{SeedRange, Suite};

#[test]
fn expanding_into_a_closed_pipe_ends_quietly() {
    let smoke = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../suites/smoke.json");
    let mut suite = Suite::parse(&std::fs::read_to_string(smoke).unwrap()).unwrap();
    suite.grids[0].seeds = Some(SeedRange {
        start: 0,
        count: 1000,
    });
    let path = std::env::temp_dir().join(format!("apex-closed-pipe-{}.json", std::process::id()));
    std::fs::write(&path, suite.render_pretty()).unwrap();

    let full = Command::new(env!("CARGO_BIN_EXE_apex"))
        .args(["suite", "expand"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(full.status.success());
    assert!(
        full.stdout.len() > 64 << 10,
        "{} bytes fit one pipe buffer",
        full.stdout.len()
    );

    let mut child = Command::new(env!("CARGO_BIN_EXE_apex"))
        .args(["suite", "expand"])
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Read one line, as `head -1` does, then close the pipe.
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    let out = child.wait_with_output().unwrap();
    std::fs::remove_file(&path).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(first.starts_with("suite \"smoke\""), "{first}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}
