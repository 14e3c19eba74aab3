//! Directive hygiene: a suppression that excuses something, a stale one
//! that excuses nothing, and doc prose that quotes the directive syntax.

pub fn used() {
    // goalrec-lint:allow(metric-name-registry): the fixture records a literal on purpose
    record("model.builds");
}

pub fn plain(x: u32) -> u32 {
    // goalrec-lint:allow(metric-name-registry): nothing on the next line names a metric, so this is stale
    x.saturating_add(1)
}

/// Prose quoting `goalrec-lint:allow(metric-name-registry): why` is no directive.
pub fn documented() {}

fn record(_name: &str) {}
