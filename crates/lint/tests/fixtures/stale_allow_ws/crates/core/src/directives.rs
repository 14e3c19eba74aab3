//! Directive hygiene: a suppression and a cold-mark that excuse something,
//! two stale directives that excuse nothing, and doc prose that quotes
//! the directive syntax.

pub trait Strategy {
    fn rank_into(&self, out: &mut Vec<u32>);
}

pub struct Greedy;

impl Strategy for Greedy {
    fn rank_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.push(control());
    }
}

// goalrec-lint:allow(hot-path-alloc): the root calls this; the mark keeps its vec off the hot path
fn control() -> u32 {
    let v = vec![1u32];
    v.len() as u32
}

// goalrec-lint:allow(hot-path-alloc): no root calls this, so the mark is stale
pub fn unreached() -> String {
    format!("x")
}

pub fn first(x: Option<u32>) -> u32 {
    // goalrec-lint:allow(no-panic-paths): the caller checked
    x.unwrap()
}

pub fn plain(x: u32) -> u32 {
    // goalrec-lint:allow(no-panic-paths): nothing on the next line panics, so this is stale
    x.saturating_add(1)
}

/// Prose quoting `goalrec-lint:allow(no-panic-paths): why` is no directive.
pub fn documented() {}
