//! A bench binary now calls `served`, so its pragma is stale.
fn main() {
    println!("{}", dcm_vllm::served());
}
