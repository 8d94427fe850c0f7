//! D3 negative: the sim entry point only reaches pure helpers.
pub struct ServingEngine;

impl ServingEngine {
    fn run(&mut self) -> f64 {
        step(1.0)
    }
}

fn step(dt: f64) -> f64 {
    dt * 2.0
}
