//! A bench binary now calls `served`, so its pragma is stale.
fn main() {
    println!("{}", dcm_vllm::served());
    println!("{}", dcm_vllm::attend(&dcm_vllm::BlockList, 0));
    println!("{}", dcm_vllm::serve(&dcm_vllm::FaultPlan, 2));
}
