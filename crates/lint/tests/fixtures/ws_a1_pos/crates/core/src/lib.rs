//! A1 positive: the event-queue push path allocates per event.
pub struct EventQueue {
    slots: Vec<u64>,
}

impl EventQueue {
    pub fn push(&mut self, t: u64) {
        self.grow(t);
    }

    fn grow(&mut self, t: u64) {
        let mut extra: Vec<u64> = Vec::new();
        extra.push(t);
        self.slots.extend(extra);
        self.slots.extend_from_slice(&[t]);
        self.slots.reserve(1);
        self.slots.resize(4, t);
        self.slots.resize_with(8, || t);
        let mut pending = std::collections::VecDeque::new();
        pending.push_back(t);
        pending.push_front(t);
    }
}
