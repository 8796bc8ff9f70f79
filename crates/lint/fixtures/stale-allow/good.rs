pub fn stamp() -> u128 {
    // storm-lint: allow(no-wall-clock): a used allow is not stale
    let start = Instant::now();
    start.elapsed().as_nanos()
}

#[cfg(test)]
mod tests {
    // storm-lint: allow(no-panic): allows in test code are never reported
    fn t() {}
}
