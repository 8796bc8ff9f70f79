//! The byte codec under the data-reduction services: a greedy LZ77, the
//! FNV-1a checksum and the header-field writer that [`crate::compress`]
//! frames extents with and [`crate::cache`] journals records with.
//!
//! Both directions append to the caller's buffer and leave it as they
//! found it when they refuse, so a payload of many extents is built in
//! one allocation.
//!
//! Token stream: a control byte `t < 0x80` is a literal run of `t + 1`
//! bytes; `t >= 0x80` is a match of length `(t & 0x7f) + 4` at a 16-bit
//! little-endian back-distance that follows. The stream a given input
//! produces is part of the on-volume format (DESIGN §3.13): the encoder
//! is differential-tested against the byte-at-a-time one it replaced.

/// Hash-table slots (12-bit hash of a 4-byte window).
const TABLE: usize = 1 << 12;
/// Shortest and longest match a token can carry.
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 0x7f + MIN_MATCH;
/// Longest literal run a token can carry.
const MAX_RUN: usize = 128;
/// Farthest back a match can reach.
const MAX_DIST: usize = u16::MAX as usize;
/// How far past `budget` the encoder lets the projected size drift before
/// giving up: matches still to come may win that much back.
const SLACK: usize = 64;
/// The most [`lz_compress`] appends beyond `budget` before it gives up
/// and truncates: the drift it tolerates, a literal-run header and a match
/// token. Reserve this much past the budget and the buffer never regrows.
pub(crate) const ENCODER_OVERRUN: usize = 2 * SLACK;

/// Encodes one little-endian metadata field into a header buffer.
pub(crate) fn put_field(buf: &mut [u8], at: usize, field: &[u8]) {
    buf[at..at + field.len()].copy_from_slice(field);
}

/// FNV-1a over a byte slice (frame and journal payload checksum).
pub(crate) fn fnv32(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in data {
        h = (h ^ b as u32).wrapping_mul(0x0100_0193);
    }
    h
}

/// The 4-byte window at `at`, if the input has one there.
fn window(input: &[u8], at: usize) -> Option<u32> {
    let w = input.get(at..)?.first_chunk::<4>()?;
    Some(u32::from_le_bytes(*w))
}

/// Length of the match between `input[cand..]` and `input[at..]`, whose
/// first [`MIN_MATCH`] bytes are known equal: eight bytes per step, the
/// first differing byte located by the XOR's trailing zeros.
fn match_len(input: &[u8], cand: usize, at: usize) -> usize {
    let max_len = (input.len() - at).min(MAX_MATCH);
    let (a, b) = (&input[cand..cand + max_len], &input[at..at + max_len]);
    let mut n = MIN_MATCH;
    let (a_words, _) = a[n..].as_chunks::<8>();
    let (b_words, _) = b[n..].as_chunks::<8>();
    for (x, y) in a_words.iter().zip(b_words) {
        let diff = u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y);
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    while n < max_len && a[n] == b[n] {
        n += 1;
    }
    n
}

/// Appends `lits` as literal-run tokens.
fn put_literals(out: &mut Vec<u8>, lits: &[u8]) {
    for run in lits.chunks(MAX_RUN) {
        out.push((run.len() - 1) as u8);
        out.extend_from_slice(run);
    }
}

/// Bytes [`put_literals`] appends for `n` literals.
fn literal_cost(n: usize) -> usize {
    n + n.div_ceil(MAX_RUN)
}

/// Greedy LZ77 with a 4-byte match hash. Appends the token stream to
/// `out` and returns true, or leaves `out` as it was and returns false
/// when the stream would not fit in `budget` bytes
/// (skip-if-incompressible). `out` may grow by up to `budget` +
/// [`ENCODER_OVERRUN`] on the way.
///
/// One data-dependent branch per match, not per byte. The table has no
/// "slot used" flag: an unused slot reads 0, and position 0 is a
/// candidate only if its window equals the current one — in which case
/// it hashed here and did claim the slot at `i = 0`. The too-far-gone
/// test reads `out.len()` and `lit_start`, which only move when a match
/// is emitted, so it runs there and once up front.
pub(crate) fn lz_compress(input: &[u8], budget: usize, out: &mut Vec<u8>) -> bool {
    let mark = out.len();
    let fits = encode(input, budget, out, mark);
    if !fits {
        out.truncate(mark);
    }
    fits
}

fn encode(input: &[u8], budget: usize, out: &mut Vec<u8>, mark: usize) -> bool {
    // Positions live in the table as u32; a PDU payload is at most 16 MiB.
    if u32::try_from(input.len()).is_err() {
        return false;
    }
    // Even ignoring future matches the stream is hopeless.
    let hopeless = |emitted: usize, lit_start: usize| {
        let rest = input.len() - lit_start;
        emitted + rest / MAX_RUN + rest > budget + SLACK
    };
    if hopeless(0, 0) {
        return false;
    }
    let mut table = [0u32; TABLE];
    let mut lit_start = 0;
    let mut i = 0;
    while let Some(cur) = window(input, i) {
        let slot = &mut table[(cur.wrapping_mul(0x9E37_79B1) >> 20) as usize % TABLE];
        let cand = *slot as usize;
        *slot = i as u32;
        // `&`, not `&&`: one branch on the conjunction. `cand` was an
        // earlier `i`, so it has a window.
        if !((cand < i) & (i.wrapping_sub(cand) <= MAX_DIST) & (window(input, cand) == Some(cur))) {
            i += 1;
            continue;
        }
        let matched = match_len(input, cand, i);
        put_literals(out, &input[lit_start..i]);
        out.push(0x80 | (matched - MIN_MATCH) as u8);
        out.extend_from_slice(&((i - cand) as u16).to_le_bytes());
        i += matched;
        lit_start = i;
        if hopeless(out.len() - mark, lit_start) {
            return false;
        }
    }
    let tail = &input[lit_start..];
    if out.len() - mark + literal_cost(tail.len()) > budget {
        return false;
    }
    put_literals(out, tail);
    true
}

/// Inverse of [`lz_compress`]: appends exactly `expected` decoded bytes to
/// `out` and returns true, or leaves `out` as it was and returns false on
/// a malformed stream or one that decodes to another length.
pub(crate) fn lz_decompress(comp: &[u8], expected: usize, out: &mut Vec<u8>) -> bool {
    let mark = out.len();
    let ok = decode(comp, mark + expected, out, mark);
    if !ok {
        out.truncate(mark);
    }
    ok
}

fn decode(mut comp: &[u8], end: usize, out: &mut Vec<u8>, mark: usize) -> bool {
    while let Some((&t, rest)) = comp.split_first() {
        if t < 0x80 {
            let Some((run, rest)) = rest.split_at_checked(t as usize + 1) else {
                return false;
            };
            if out.len() + run.len() > end {
                return false;
            }
            out.extend_from_slice(run);
            comp = rest;
        } else {
            let len = (t & 0x7f) as usize + MIN_MATCH;
            let Some((dist, rest)) = rest.split_first_chunk::<2>() else {
                return false;
            };
            let dist = u16::from_le_bytes(*dist) as usize;
            if dist == 0 || dist > out.len() - mark || out.len() + len > end {
                return false;
            }
            let start = out.len() - dist;
            if dist >= len {
                out.extend_from_within(start..start + len);
            } else {
                // The match overlaps what it writes (RLE-style): each
                // byte may be one this loop just pushed.
                for k in start..start + len {
                    out.push(out[k]);
                }
            }
            comp = rest;
        }
    }
    out.len() == end
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use storm_sim::SimRng;

    /// [`lz_compress`] into a buffer that already holds other bytes, the
    /// way the service calls it; checks they survive either outcome.
    pub(crate) fn compress_vec(input: &[u8], budget: usize) -> Option<Vec<u8>> {
        let mut out = b"hdr".to_vec();
        let fits = lz_compress(input, budget, &mut out);
        assert_eq!(&out[..3], b"hdr");
        assert!(
            fits || out.len() == 3,
            "a refusal leaves the buffer as it was"
        );
        fits.then(|| out.split_off(3))
    }

    /// [`lz_decompress`], likewise after a prefix no match may reach into.
    pub(crate) fn decompress_vec(comp: &[u8], expected: usize) -> Option<Vec<u8>> {
        let mut out = b"prefix, not history".to_vec();
        let mark = out.len();
        let ok = lz_decompress(comp, expected, &mut out);
        assert_eq!(&out[..mark], b"prefix, not history");
        assert!(
            ok || out.len() == mark,
            "a refusal leaves the buffer as it was"
        );
        ok.then(|| out.split_off(mark))
    }

    /// The encoder this module shipped before the word-at-a-time rewrite,
    /// byte for byte: the oracle for the bytes at rest.
    fn lz_compress_oracle(input: &[u8], budget: usize) -> Option<Vec<u8>> {
        const TABLE: usize = 1 << 12;
        let mut out = Vec::with_capacity(budget.min(input.len()));
        let mut table = [0usize; TABLE];
        let mut seen = [false; TABLE];
        let hash = |w: &[u8]| {
            (u32::from_le_bytes([w[0], w[1], w[2], w[3]]).wrapping_mul(0x9E37_79B1) >> 20) as usize
                % TABLE
        };
        let mut lit_start = 0;
        let mut i = 0;
        let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
            let mut s = from;
            while s < to {
                let run = (to - s).min(128);
                out.push((run - 1) as u8);
                out.extend_from_slice(&input[s..s + run]);
                s += run;
            }
        };
        while i + 4 <= input.len() {
            let h = hash(&input[i..i + 4]);
            let cand = table[h];
            let mut matched = 0;
            if seen[h] && cand < i && i - cand <= u16::MAX as usize {
                let max_len = (input.len() - i).min(131);
                while matched < max_len && input[cand + matched] == input[i + matched] {
                    matched += 1;
                }
            }
            table[h] = i;
            seen[h] = true;
            if matched >= 4 {
                flush_literals(&mut out, lit_start, i);
                out.push(0x80 | (matched - 4) as u8);
                out.extend_from_slice(&((i - cand) as u16).to_le_bytes());
                i += matched;
                lit_start = i;
            } else {
                i += 1;
            }
            if out.len() + (input.len() - lit_start) / 128 + (input.len() - lit_start) > budget + 64
            {
                return None;
            }
        }
        flush_literals(&mut out, lit_start, input.len());
        if out.len() <= budget {
            Some(out)
        } else {
            None
        }
    }

    /// The decoder before the rewrite.
    fn lz_decompress_oracle(mut comp: &[u8], expected: usize) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(expected);
        while let Some((&t, rest)) = comp.split_first() {
            comp = rest;
            if t < 0x80 {
                let run = t as usize + 1;
                if comp.len() < run || out.len() + run > expected {
                    return None;
                }
                out.extend_from_slice(&comp[..run]);
                comp = &comp[run..];
            } else {
                let len = (t & 0x7f) as usize + 4;
                if comp.len() < 2 {
                    return None;
                }
                let dist = u16::from_le_bytes([comp[0], comp[1]]) as usize;
                comp = &comp[2..];
                if dist == 0 || dist > out.len() || out.len() + len > expected {
                    return None;
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
        if out.len() == expected {
            Some(out)
        } else {
            None
        }
    }

    /// Phrases from the benchmark's `compressible_block` vocabulary.
    pub(crate) fn word_text(rng: &mut SimRng, len: usize) -> Vec<u8> {
        const WORDS: [&[u8]; 8] = [
            b"volume ",
            b"tenant ",
            b"middle-box ",
            b"relay ",
            b"storage ",
            b"iscsi ",
            b"block ",
            b"service ",
        ];
        let mut out = Vec::with_capacity(len + 16);
        while out.len() < len {
            out.extend_from_slice(WORDS[rng.below(WORDS.len() as u64) as usize]);
        }
        out.truncate(len);
        out
    }

    const LENGTHS: [usize; 8] = [0, 3, 4, 16, 512, 4096, 16_384, 70_000];

    /// One input per family the encoder behaves differently on.
    fn families(rng: &mut SimRng, len: usize) -> Vec<Vec<u8>> {
        let mut random = vec![0u8; len];
        rng.fill(&mut random);
        let period = 1 + rng.below(9) as usize;
        let short_period = (0..len).map(|i| random[i % period]).collect();
        let two_bit = random.iter().map(|b| b & 3).collect();
        // Second half repeats the first: matches at distance len / 2, past
        // the 16-bit cap when len is 70 000.
        let mut half_dup = random.clone();
        half_dup.copy_within(..len / 2, len - len / 2);
        vec![
            word_text(rng, len),
            short_period,
            two_bit,
            half_dup,
            vec![0u8; len],
            random,
        ]
    }

    fn budgets(len: usize) -> [usize; 3] {
        [len.saturating_sub(17), len / 2, len]
    }

    #[test]
    fn encoder_matches_the_byte_at_a_time_oracle() {
        let mut rng = SimRng::seed_from_u64(0x1277_E0C0);
        let mut compared = 0;
        let mut compressed = 0;
        for round in 0..24 {
            for len in LENGTHS {
                // The long inputs once: the debug-build oracle is slow.
                if len > 16_384 && round > 0 {
                    continue;
                }
                for input in families(&mut rng, len) {
                    for budget in budgets(len) {
                        let new = compress_vec(&input, budget);
                        assert_eq!(
                            new,
                            lz_compress_oracle(&input, budget),
                            "len {len} budget {budget} round {round}"
                        );
                        compared += 1;
                        compressed += usize::from(new.is_some());
                    }
                }
            }
        }
        assert!(
            compared > 3_000 && compressed > compared / 4,
            "{compared} {compressed}"
        );
    }

    #[test]
    fn decoder_matches_the_oracle_on_valid_and_mutated_streams() {
        let mut rng = SimRng::seed_from_u64(0xDEC0_DE42);
        let mut mutated_ok = 0;
        for len in LENGTHS {
            for input in families(&mut rng, len) {
                let Some(stream) = lz_compress_oracle(&input, len + len / 64 + 8) else {
                    continue;
                };
                assert_eq!(decompress_vec(&stream, len).as_deref(), Some(&input[..]));
                assert_eq!(decompress_vec(&stream, len + 1), None);
                if stream.is_empty() {
                    continue;
                }
                for _ in 0..48 {
                    let mut bad = stream.clone();
                    let at = rng.below(bad.len() as u64) as usize;
                    bad[at] ^= 1 << rng.below(8);
                    let new = decompress_vec(&bad, len);
                    assert_eq!(new, lz_decompress_oracle(&bad, len), "len {len} at {at}");
                    mutated_ok += usize::from(new.is_some());
                }
                // Truncation and a token run on past the end.
                let cut = &stream[..stream.len() - 1];
                assert_eq!(decompress_vec(cut, len), lz_decompress_oracle(cut, len));
            }
        }
        assert!(mutated_ok > 0, "some mutations still decode (a literal)");
    }

    #[test]
    fn a_match_cannot_reach_into_the_bytes_before_the_stream() {
        // "literal a, then a match 2 back": valid only with history.
        assert_eq!(decompress_vec(&[0x00, b'a', 0x80, 0x02, 0x00], 5), None);
        assert_eq!(
            lz_decompress_oracle(&[0x00, b'a', 0x80, 0x02, 0x00], 5),
            None
        );
    }

    #[test]
    fn overlapping_and_disjoint_matches_replay() {
        // 'ab' then a 6-byte match at distance 2 (overlapping), then a
        // 4-byte match at distance 8 (disjoint).
        let stream = [0x01, b'a', b'b', 0x82, 0x02, 0x00, 0x80, 0x08, 0x00];
        assert_eq!(
            decompress_vec(&stream, 12).as_deref(),
            Some(&b"abababababab"[..])
        );
    }
}
