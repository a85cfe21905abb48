//! Seeded fixture crate: every lint has one injected violation and
//! one suppressed instance. Never compiled — only lexed and linted.
//! The missing `deny(deprecated)` inner attribute is itself the
//! injected `crate-hygiene` violation.
#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
// camdn-lint: allow(nondet-iter, reason = "keyed memo; entries are never iterated")
use std::collections::HashSet;

fn clocks() {
    let _bad = std::time::Instant::now();
    // camdn-lint: allow(wall-clock-in-sim, reason = "wall budget guard, outside the simulated timeline")
    let _ok = std::time::SystemTime::now();
}

fn panics(x: Option<u32>) -> u32 {
    let _bad = x.unwrap();
    // camdn-lint: allow(panic-in-lib, reason = "checked is_some() on the line above")
    x.expect("present")
}

fn registries() -> (&'static str, &'static str) {
    let _documented = "camdn-mini/1";
    let _rogue = "camdn-mini-rogue/1";
    // camdn-lint: allow(schema-registry, reason = "internal probe id, not a wire format")
    let _hidden = "camdn-mini-hidden/1";
    let _env_documented = "CAMDN_MINI_DOCUMENTED";
    let _env_rogue = "CAMDN_MINI_ROGUE";
    // camdn-lint: allow(env-registry, reason = "internal test hook, intentionally undocumented")
    let _env_hidden = "CAMDN_MINI_HIDDEN";
    ("camdn-mini/1", "CAMDN_MINI_DOCUMENTED")
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_regions_are_exempt() {
        let _map = std::collections::HashMap::<u32, u32>::new();
        let _t = std::time::Instant::now();
        let _schema = "camdn-mini-test-only/1";
        let _env = "CAMDN_MINI_TEST_ONLY";
        panic!("tests may panic");
    }
}
