//! Records the flags this binary was compiled with, so every result
//! can state its effective RUSTFLAGS (including those that come from
//! `.cargo/config.toml`, which cargo hands to build scripts through
//! `CARGO_ENCODED_RUSTFLAGS`).

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .split('\u{1f}')
        .filter(|f| !f.is_empty())
        .collect::<Vec<_>>()
        .join(" ");
    println!("cargo:rustc-env=PERFBENCH_RUSTFLAGS={flags}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
