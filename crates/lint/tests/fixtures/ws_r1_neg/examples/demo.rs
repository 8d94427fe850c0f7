//! An example: every function here is an `R1` root.
fn main() {
    println!("{}", dcm_core::from_example());
}
