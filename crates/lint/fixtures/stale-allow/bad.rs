// storm-lint: allow(no-wall-clock): the clock read this excused has moved
pub fn tick(now: u64) -> u64 {
    now + 1
}

// storm-lint: allow(no-wall-clok): a typo names no rule
pub fn tock() {}
