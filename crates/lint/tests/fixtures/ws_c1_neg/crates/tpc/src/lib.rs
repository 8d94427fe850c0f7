//! C1 negative: justified casts (pragma) or casts confined to tests.
fn widen(n: u32) -> u64 {
    // dcm-lint: allow(C1) u32 to u64 is lossless
    n as u64
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_cast_freely() {
        assert_eq!(3usize as f64, 3.0);
    }
}
