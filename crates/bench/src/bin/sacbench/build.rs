//! Records what built the benchmark, so every result can say it: the rustc
//! version and the cargo profile.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().to_owned());
    println!("cargo:rustc-env=SACBENCH_RUSTC={version}");
    for (var, key) in [
        ("PROFILE", "SACBENCH_PROFILE"),
        ("OPT_LEVEL", "SACBENCH_OPT_LEVEL"),
    ] {
        let value = std::env::var(var).unwrap_or_else(|_| "unknown".to_owned());
        println!("cargo:rustc-env={key}={value}");
    }
    println!("cargo:rerun-if-changed=build.rs");
}
