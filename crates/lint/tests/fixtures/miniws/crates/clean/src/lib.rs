//! Clean fixture crate: constructs that are out of every lint's scope
//! and must produce zero findings.
#![warn(missing_docs)]
#![deny(deprecated)]
#![forbid(unsafe_code)]

use std::collections::HashMap;

/// `HashMap` is fine here: `clean` is not a result-affecting crate.
pub fn scope_proof() -> HashMap<u32, u32> {
    HashMap::new()
}
