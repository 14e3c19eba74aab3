//! Known-bad: allocation and blocking calls reachable from roots, via
//! plain, qualified (`<T as Trait>::call`) and multi-line call forms.

pub trait Strategy {
    fn rank_into(&self);
    fn rank(&self) {}
}

pub struct Greedy;

impl Strategy for Greedy {
    fn rank_into(&self) {
        scratch();
    }
    fn rank(&self) {}
}

pub struct Wide;

impl Strategy for Wide {
    fn rank_into(&self) {
        <Greedy as Strategy>::rank_into(&Greedy);
    }
    fn rank(&self) {}
}

fn scratch() {
    let mut v = Vec::new();
    v.push(1u32);
    let doubled: Vec<u32> = v
        .iter()
        .map(|x| x * 2)
        .collect();
    nap(doubled.len());
}

fn nap(_n: usize) {
    std::thread::sleep(std::time::Duration::from_millis(1));
}
