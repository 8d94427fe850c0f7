//! A bench binary: every function here is an `R1` root.
fn main() {
    let clock = dcm_core::SimClock::default();
    let mut engine = dcm_core::ServingEngine::new();
    println!("{}", engine.run(&clock));
    println!("{}", dcm_core::rebound(&dcm_core::Store));
}
