//! Clean: the root fills caller-provided scratch and never allocates;
//! `report` allocates but no root reaches it.

pub trait Strategy {
    fn rank_into(&self, out: &mut Vec<u32>);
    fn rank(&self) {}
}

pub struct Arena;

impl Strategy for Arena {
    fn rank_into(&self, out: &mut Vec<u32>) {
        out.clear();
        fill(out);
    }
    fn rank(&self) {}
}

fn fill(out: &mut Vec<u32>) {
    out.push(7);
}

pub fn report(out: &[u32]) -> String {
    let mut s = String::new();
    s.push_str(if out.is_empty() { "empty" } else { "full" });
    s
}
