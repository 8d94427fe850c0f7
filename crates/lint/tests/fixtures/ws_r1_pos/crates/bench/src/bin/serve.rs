//! A bench binary now calls `served`, so its pragma is stale.
fn main() {
    println!("{}", dcm_vllm::served());
    println!("{}", dcm_vllm::attend(&dcm_vllm::BlockList, 0));
}
