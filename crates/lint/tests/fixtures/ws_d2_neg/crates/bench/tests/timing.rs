//! D2 negative: test code may read the wall clock.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed())
}
