//! Helpers shared by the integration suites.

/// Compares `actual` byte for byte against `tests/golden/<name>`.
/// With `LLMNPU_BLESS_GOLDEN` set, (re)writes the golden instead —
/// only for an intended change, which the commit must explain.
pub fn assert_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("LLMNPU_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert!(
        expected == actual,
        "output drifted from {} (rerun with LLMNPU_BLESS_GOLDEN=1 only if the change is \
         intended)",
        path.display()
    );
}
