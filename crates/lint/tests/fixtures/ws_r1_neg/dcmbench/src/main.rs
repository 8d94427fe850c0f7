//! Host timing. `dcmbench/src` is read for `R1`'s call graph only: no
//! token rule runs here, and the `D3` graph leaves it out, so this
//! `Instant` raises neither `D2` nor `D3`, although `Timer::elapsed`
//! shares its name with the `SimClock::elapsed` that `ServingEngine::run`
//! calls.
use std::time::Instant;

struct Timer {
    start: Instant,
}

impl Timer {
    fn elapsed(&self) -> f64 {
        Instant::now().duration_since(self.start).as_secs_f64()
    }
}

fn main() {
    let t = Timer {
        start: Instant::now(),
    };
    println!("{} {}", dcm_core::timed_entry(), t.elapsed());
}
