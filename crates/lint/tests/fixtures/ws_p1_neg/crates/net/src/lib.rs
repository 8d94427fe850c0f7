//! P1 negative: fallible signature in code, unwrap only in tests.
fn first_hop(path: &[u32]) -> Option<u32> {
    path.first().copied()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        assert_eq!(super::first_hop(&[7]).unwrap(), 7);
    }
}
