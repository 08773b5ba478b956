//! `mp_launcher` from the outside: a command line it cannot honour is exit
//! status 2 with the reason on stderr, before any rank process starts.

use std::process::Command;

#[test]
fn zero_ranks_is_a_command_line_error_naming_the_valid_range() {
    let output = Command::new(env!("CARGO_BIN_EXE_mp_launcher"))
        .args(["--ranks", "0"])
        .env_remove("MP_LAUNCHER_RANK")
        .output()
        .expect("run mp_launcher");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--ranks wants at least one rank (1 or more), got 0"),
        "{stderr}"
    );
    assert!(
        output.stdout.is_empty(),
        "no run was announced: {}",
        String::from_utf8_lossy(&output.stdout)
    );
}
