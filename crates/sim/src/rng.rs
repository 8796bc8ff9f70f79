//! Seeded randomness for reproducible experiments.

/// A deterministic random source for simulations.
///
/// All experiment randomness (I/O offsets, think times, workload mixes) is
/// drawn through a `SimRng` seeded from the experiment configuration, so a
/// run is fully reproducible from its seed. The generator is xoshiro256++
/// seeded through SplitMix64; every digest in the repository depends on
/// its exact stream.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion, the standard way to seed xoshiro.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 random bits (xoshiro256++).
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Derives an independent child generator; used to give each workload
    /// thread / component its own stream without correlation.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.next_u64())
    }

    /// Uniform integer in `[0, bound)`: Lemire's multiply-shift, with the
    /// rejection loop that removes its bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() needs a positive bound");
        let mut m = u128::from(self.next_u64()) * u128::from(bound);
        if (m as u64) < bound {
            let threshold = bound.wrapping_neg() % bound;
            while (m as u64) < threshold {
                m = u128::from(self.next_u64()) * u128::from(bound);
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.unit() < p
    }

    /// Uniform float in `[0, 1)`, from the 53 high bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick() from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fills `buf` with random bytes (payload generation), eight
    /// little-endian bytes per draw.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.below(1000), b.below(1000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64)
            .filter(|_| a.below(1 << 30) == b.below(1 << 30))
            .count();
        assert!(same < 4);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        let mut fa = a.fork();
        let mut fb = b.fork();
        assert_eq!(fa.below(1 << 20), fb.below(1 << 20));
    }

    #[test]
    fn range_and_chance_bounds() {
        let mut r = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let u = r.unit();
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn pick_covers_all_elements() {
        let mut r = SimRng::seed_from_u64(9);
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[*r.pick(&items) as usize - 1] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    /// The first draws of every method at two seeds. Every digest in the
    /// repository rests on this stream: xoshiro256++ seeded through
    /// SplitMix64, Lemire's range draw with its rejection loop (a span of
    /// 2^63 + 1 rejects about half its first draws), 53-bit floats and
    /// little-endian fills.
    fn first_draws(seed: u64) -> Vec<u64> {
        let mut r = SimRng::seed_from_u64(seed);
        let mut buf = [0u8; 13];
        r.fill(&mut buf);
        let mut head = [0u8; 8];
        head.copy_from_slice(&buf[..8]);
        let mut tail = [0u8; 8];
        tail.copy_from_slice(&buf[5..]);
        let mut child = r.fork();
        let mut out = vec![u64::from_le_bytes(head), u64::from_le_bytes(tail)];
        out.extend((0..4).map(|_| r.below((1 << 63) + 1)));
        out.extend([
            r.below(1000),
            r.range(10, 1 << 33),
            r.chance(0.3).into(),
            r.chance(0.7).into(),
            r.unit().to_bits(),
            child.below(u64::MAX),
            child.unit().to_bits(),
        ]);
        out
    }

    #[test]
    fn first_draws_are_pinned() {
        let seed_0 = [
            0x53175d61490b23df,
            0x3dc380d50753175d,
            0x6dba4863ad5a8137,
            0x25bed05011c4f87f,
            0x0d572aa1a1cb0660,
            0x333e95ffee8a4b7b,
            0x272,
            0x3aa1102d,
            0,
            1,
            0x3fd1ba47fad14d7e,
            0xfc1e55edd1af4fca,
            0x3fe1a7f859e79ce5,
        ];
        let seed_20160628 = [
            0x13592c0e4fdc998e,
            0x3871e66df413592c,
            0x39311dd33fdbdf48,
            0x66cb15b0edebb5ed,
            0x781c5a66be21f607,
            0x2753da7ba553d98d,
            0x42,
            0x1edfe41d0,
            1,
            1,
            0x3fec04bd0134d748,
            0xe572c07d47d79174,
            0x3fec32501bbf042b,
        ];
        assert_eq!(first_draws(0), seed_0);
        assert_eq!(first_draws(20160628), seed_20160628);
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn below_zero_panics() {
        SimRng::seed_from_u64(0).below(0);
    }
}
