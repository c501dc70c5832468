//! Records the compiler version the benchmark was built with, for the
//! host metadata each run prints.

use std::process::Command;

fn main() {
    // A new compiler rebuilds the package anyway; nothing else changes
    // what this script finds.
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|text| text.trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or("unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
}
