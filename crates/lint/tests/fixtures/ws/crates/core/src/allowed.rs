//! Suppression and allowlist behavior.

use goalrec_core::ids::GoalId;

pub fn suppressed() {
    // goalrec-lint:allow(metric-name-registry): fixture boundary, the name is checked upstream
    record("model.builds");
}

pub fn unjustified() {
    record("model.builds"); // goalrec-lint:allow(metric-name-registry)
}

pub fn toml_covered(g: GoalId) -> usize {
    g.raw() as usize
}

// goalrec-lint:allow(hot-path-alloc): names a rule the lint no longer has
pub fn retired() {}

fn record(_name: &str) {}
