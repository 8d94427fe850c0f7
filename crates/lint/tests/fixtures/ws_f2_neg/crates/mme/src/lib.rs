//! F2 negative: tolerance compare in code, exact compare only in tests.
fn is_idle(util: f64) -> bool {
    util.abs() < 1e-12
}

#[cfg(test)]
mod tests {
    #[test]
    fn goldens_may_compare_exactly() {
        assert!(super::is_idle(0.0));
        assert!(0.5_f64 == 0.5);
    }
}
