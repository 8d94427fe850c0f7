//! Functional collectives over host tensors.
//!
//! These move real data so tensor-parallel execution (§3.5 multi-device
//! serving) can be verified end-to-end: `allreduce` really sums the
//! per-device partial activations, `allgather` really concatenates shards.

use dcm_core::error::{DcmError, Result};
use dcm_core::tensor::Tensor;

fn check_uniform(tensors: &[Tensor]) -> Result<()> {
    if tensors.len() < 2 {
        return Err(DcmError::InvalidConfig(
            "collective needs at least 2 participants".to_owned(),
        ));
    }
    let first = tensors[0].desc().clone();
    for (i, t) in tensors.iter().enumerate().skip(1) {
        if t.desc() != &first {
            return Err(DcmError::ShapeMismatch(format!(
                "participant {i} has {} but participant 0 has {}",
                t.desc(),
                first
            )));
        }
    }
    Ok(())
}

/// In-place all-reduce: every tensor becomes the element-wise sum.
///
/// # Errors
/// Returns an error if fewer than 2 participants or shapes differ.
pub fn allreduce(tensors: &mut [Tensor]) -> Result<()> {
    check_uniform(tensors)?;
    let n = tensors[0].data().len();
    let mut sum = vec![0.0f32; n];
    for t in tensors.iter() {
        for (s, &v) in sum.iter_mut().zip(t.data()) {
            *s += v;
        }
    }
    for t in tensors.iter_mut() {
        t.data_mut().copy_from_slice(&sum);
    }
    Ok(())
}

/// All-gather: concatenate every participant's rank-1 shard into one
/// rank-1 tensor, returned once per participant (identical copies).
///
/// # Errors
/// Returns an error if fewer than 2 participants or shapes differ.
// dcm-lint: allow(R1) §3.4 functional layer; prop_collectives::allreduce_is_rs_plus_ag
pub fn allgather(shards: &[Tensor]) -> Result<Vec<Tensor>> {
    check_uniform(shards)?;
    let mut cat = Vec::new();
    for s in shards {
        cat.extend_from_slice(s.data());
    }
    let n = cat.len();
    let dtype = shards[0].dtype();
    let out = Tensor::from_vec([n], dtype, cat)?;
    Ok(vec![out; shards.len()])
}

/// Reduce-scatter: element-wise sum, then shard `i` of the sum goes to
/// participant `i`.
///
/// # Errors
/// Returns an error if participants disagree in shape or the element count
/// is not divisible by the participant count.
// dcm-lint: allow(R1) §3.4 functional layer; prop_collectives::allreduce_is_rs_plus_ag
pub fn reduce_scatter(tensors: &[Tensor]) -> Result<Vec<Tensor>> {
    check_uniform(tensors)?;
    let n = tensors[0].data().len();
    let parts = tensors.len();
    if !n.is_multiple_of(parts) {
        return Err(DcmError::ShapeMismatch(format!(
            "{n} elements not divisible into {parts} shards"
        )));
    }
    let mut sum = vec![0.0f32; n];
    for t in tensors {
        for (s, &v) in sum.iter_mut().zip(t.data()) {
            *s += v;
        }
    }
    let shard = n / parts;
    let dtype = tensors[0].dtype();
    (0..parts)
        .map(|i| Tensor::from_vec([shard], dtype, sum[i * shard..(i + 1) * shard].to_vec()))
        .collect()
}

/// All-to-all: `chunks[i][j]` (sent by `i` to `j`) becomes `out[j][i]`.
///
/// # Errors
/// Returns an error if the chunk matrix is not square and uniform.
// dcm-lint: allow(R1) §3.4 functional layer; prop_collectives::all_to_all_involution
pub fn all_to_all(chunks: &[Vec<Tensor>]) -> Result<Vec<Vec<Tensor>>> {
    let n = chunks.len();
    if n < 2 || chunks.iter().any(|row| row.len() != n) {
        return Err(DcmError::InvalidConfig(
            "all_to_all needs a square chunk matrix with >=2 participants".to_owned(),
        ));
    }
    let mut out = vec![Vec::with_capacity(n); n];
    for j in 0..n {
        for row in chunks.iter() {
            out[j].push(row[j].clone());
        }
    }
    Ok(out)
}

/// Reduce to `root`: returns the element-wise sum (held by the root).
///
/// # Errors
/// Returns an error if fewer than 2 participants, shapes differ, or `root`
/// is out of range.
// dcm-lint: allow(R1) §3.4 functional layer; prop_collectives::allreduce_is_reduce_plus_broadcast
pub fn reduce(tensors: &[Tensor], root: usize) -> Result<Tensor> {
    check_uniform(tensors)?;
    if root >= tensors.len() {
        return Err(DcmError::IndexOutOfBounds(format!(
            "root {root} out of {} participants",
            tensors.len()
        )));
    }
    let n = tensors[0].data().len();
    let mut sum = vec![0.0f32; n];
    for t in tensors {
        for (s, &v) in sum.iter_mut().zip(t.data()) {
            *s += v;
        }
    }
    Tensor::from_vec(tensors[0].shape().dims().to_vec(), tensors[0].dtype(), sum)
}

/// Broadcast `root`'s tensor to all `n` participants.
///
/// # Errors
/// Returns an error if `n < 2`.
// dcm-lint: allow(R1) §3.4 functional layer; prop_collectives::allreduce_is_reduce_plus_broadcast
pub fn broadcast(root_tensor: &Tensor, n: usize) -> Result<Vec<Tensor>> {
    if n < 2 {
        return Err(DcmError::InvalidConfig(
            "broadcast needs at least 2 participants".to_owned(),
        ));
    }
    Ok(vec![root_tensor.clone(); n])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcm_core::{rng, DType};

    fn parts(n: usize, len: usize, seed: u64) -> Vec<Tensor> {
        let mut r = rng::seeded(seed);
        (0..n)
            .map(|_| Tensor::random([len], DType::Fp32, &mut r))
            .collect()
    }

    #[test]
    fn allreduce_sums_everywhere() {
        let mut ts = parts(4, 32, 1);
        let expect: Vec<f32> = (0..32)
            .map(|i| ts.iter().map(|t| t.data()[i]).sum())
            .collect();
        allreduce(&mut ts).unwrap();
        for t in &ts {
            for (a, b) in t.data().iter().zip(&expect) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn allgather_concatenates_in_rank_order() {
        let ts = parts(3, 4, 2);
        let out = allgather(&ts).unwrap();
        assert_eq!(out.len(), 3);
        for o in &out {
            assert_eq!(o.data().len(), 12);
            assert_eq!(&o.data()[4..8], ts[1].data());
        }
    }

    #[test]
    fn reduce_scatter_matches_allreduce_shards() {
        let ts = parts(4, 32, 3);
        let mut ar = ts.clone();
        allreduce(&mut ar).unwrap();
        let rs = reduce_scatter(&ts).unwrap();
        for (i, shard) in rs.iter().enumerate() {
            assert_eq!(shard.data(), &ar[0].data()[i * 8..(i + 1) * 8]);
        }
    }

    #[test]
    fn allreduce_equals_reduce_scatter_plus_allgather() {
        // The ring all-reduce identity the timing model assumes.
        let ts = parts(4, 16, 4);
        let mut ar = ts.clone();
        allreduce(&mut ar).unwrap();
        let rs = reduce_scatter(&ts).unwrap();
        let ag = allgather(&rs).unwrap();
        assert_eq!(ag[0].data(), ar[0].data());
    }

    #[test]
    fn all_to_all_transposes() {
        let mut r = rng::seeded(5);
        let chunks: Vec<Vec<Tensor>> = (0..3)
            .map(|_| {
                (0..3)
                    .map(|_| Tensor::random([2], DType::Fp32, &mut r))
                    .collect()
            })
            .collect();
        let out = all_to_all(&chunks).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(out[j][i], chunks[i][j]);
            }
        }
    }

    #[test]
    fn reduce_and_broadcast() {
        let ts = parts(4, 8, 6);
        let r = reduce(&ts, 2).unwrap();
        let mut ar = ts.clone();
        allreduce(&mut ar).unwrap();
        assert_eq!(r.data(), ar[0].data());
        let b = broadcast(&r, 4).unwrap();
        assert_eq!(b.len(), 4);
        assert_eq!(b[3], r);
    }

    #[test]
    fn validation_errors() {
        let one = parts(1, 4, 7);
        let mut one_mut = one.clone();
        assert!(allreduce(&mut one_mut).is_err());
        let mut ragged = parts(2, 4, 8);
        ragged[1] = Tensor::zeros([5], DType::Fp32);
        assert!(allgather(&ragged).is_err());
        let ts = parts(3, 4, 9); // 4 not divisible by 3
        assert!(reduce_scatter(&ts).is_err());
        assert!(reduce(&parts(2, 4, 10), 5).is_err());
        assert!(broadcast(&one[0], 1).is_err());
        assert!(all_to_all(&[vec![one[0].clone()]]).is_err());
    }
}
