//! End-to-end tests of the compiled `clio-shell` binary in `--script`
//! mode.

use std::io::Write as _;
use std::process::Command;

fn run_script(script: &str, extra_args: &[&str]) -> String {
    let path = std::env::temp_dir().join(format!(
        "clio_shell_script_{}_{}.txt",
        std::process::id(),
        script.len()
    ));
    let mut f = std::fs::File::create(&path).expect("temp script");
    f.write_all(script.as_bytes()).expect("write script");
    drop(f);
    let out = Command::new(env!("CARGO_BIN_EXE_clio-shell"))
        .args(extra_args)
        .arg("--script")
        .arg(&path)
        .output()
        .expect("binary runs");
    std::fs::remove_file(&path).ok();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn paper_session_via_binary() {
    let out = run_script(
        "source\n\
         corr Children.ID -> ID\n\
         corr Children.name -> name\n\
         corr Parents.affiliation -> affiliation\n\
         confirm 2\n\
         target\n\
         sql\n\
         quit\n",
        &[],
    );
    assert!(out.contains("fk Children(mid) -> Parents(ID)"));
    assert!(out.contains("Maya"));
    assert!(out.contains("CREATE VIEW Kids AS"));
    assert!(out.contains("LEFT JOIN Parents"));
}

#[test]
fn synthetic_source_via_binary() {
    let out = run_script(
        "source\ncorr R0.p0 -> B0\ntarget\nquit\n",
        &["--synthetic", "chain,3,20"],
    );
    assert!(out.contains("R0 (id str not null"));
    assert!(out.contains("T.B0"));
}

#[test]
fn errors_do_not_kill_script_mode() {
    let out = run_script("bogus command\nhelp\nquit\n", &[]);
    assert!(out.contains("error: unknown command"));
    assert!(out.contains("commands:"));
}

#[test]
fn csv_source_via_binary() {
    // export the paper database, then load it back through --source
    let dir = std::env::temp_dir().join(format!("clio_shell_csv_{}", std::process::id()));
    let db = clio_datagen::paper::paper_database();
    clio_relational::csv::write_database(&db, &dir).expect("export");
    let out = run_script(
        "profile\ncorr Children.ID -> ID\ntarget\nquit\n",
        &[
            "--source",
            dir.to_str().unwrap(),
            "--target",
            "Kids (ID str not null, name str)",
        ],
    );
    std::fs::remove_dir_all(&dir).ok();
    assert!(out.contains("Children.ID"));
    assert!(out.contains("| 002"));
}
