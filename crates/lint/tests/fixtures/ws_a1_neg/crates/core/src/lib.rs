//! A1 negative: the hot path is allocation-free; a cold reporting
//! helper may allocate freely.
pub struct EventQueue {
    slots: Vec<u64>,
}

impl EventQueue {
    fn push(&mut self, t: u64) {
        self.slots[0] = t;
    }
}

fn report_lines(n: u64) -> Vec<u64> {
    let mut v = Vec::new();
    v.push(n);
    v
}
