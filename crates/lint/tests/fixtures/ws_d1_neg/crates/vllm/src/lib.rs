//! D1 negative: ordered collections everywhere; hash maps only in tests.
use std::collections::BTreeMap;

fn routing_table() -> BTreeMap<u64, usize> {
    BTreeMap::new()
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    #[test]
    fn dedup_is_fine_in_tests() {
        let s: HashSet<u64> = [1, 2, 2].into_iter().collect();
        assert_eq!(s.len(), 2);
    }
}
