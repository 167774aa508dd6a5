//! A small, dependency-free LZ77 codec for segment payloads.
//!
//! The segment dictionary (see [`crate::segment`]) dedups *exact*
//! string repeats, but real workload bodies are templated HTML — every
//! page unique, yet overwhelmingly similar to earlier pages rendered
//! from the same template. LZ77 with a whole-payload window turns that
//! cross-body redundancy into short back-references, which is what gets
//! the store under its bytes-per-event budget.
//!
//! Encoded form: `varint uncompressed_len`, then a token stream; each
//! token is `length-prefixed literal bytes` + `varint match_len` +
//! (`varint match_dist` when `match_len > 0`). `match_len == 0`
//! terminates the stream. Matches may overlap their own output (the
//! classic RLE trick). [`decompress`] validates every length and
//! distance and the final size, so hostile inputs fail cleanly instead
//! of overrunning.

use orochi_common::codec::{Decoder, Encoder};

/// Matches shorter than this cost more to encode than to store literal.
const MIN_MATCH: usize = 4;
/// Hash-table size for the 4-byte match index.
const HASH_BITS: u32 = 15;
/// Chain-walk budget per position: compression effort vs speed.
const MAX_CHAIN: usize = 128;
/// Upper bound accepted for a declared uncompressed length (hostile
/// inputs could otherwise demand gigabytes before any data is read).
const MAX_OUTPUT: usize = 1 << 31;

fn hash4(w: &[u8]) -> usize {
    let v = u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Length of the longest common prefix of two equally long slices,
/// eight bytes per step. Most of the encoder's time is spent here; a
/// byte-at-a-time loop made its throughput swing by a quarter with
/// where the linker happened to place it.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut words = a.chunks_exact(8).zip(b.chunks_exact(8));
    let mut l = 0;
    for (x, y) in &mut words {
        let x = u64::from_le_bytes(x.try_into().expect("chunks of eight"));
        let y = u64::from_le_bytes(y.try_into().expect("chunks of eight"));
        if x != y {
            return l + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    l + a[l..]
        .iter()
        .zip(&b[l..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Hash-chain index over every byte position seen so far.
struct Matcher<'a> {
    input: &'a [u8],
    head: Vec<u32>,
    prev: Vec<u32>,
}

impl<'a> Matcher<'a> {
    fn new(input: &'a [u8]) -> Self {
        Matcher {
            input,
            head: vec![u32::MAX; 1 << HASH_BITS],
            prev: vec![u32::MAX; input.len()],
        }
    }

    /// Records position `i` so later positions can match against it.
    fn insert(&mut self, i: usize) {
        let h = hash4(&self.input[i..]);
        self.prev[i] = self.head[h];
        self.head[h] = i as u32;
    }

    /// Longest earlier occurrence of the bytes at `i`, as (len, dist):
    /// the nearest candidate of that length within the chain budget.
    fn longest(&self, i: usize) -> (usize, usize) {
        let input = self.input;
        let max = input.len() - i;
        let (mut best_len, mut best_dist) = (0usize, 0usize);
        let mut cand = self.head[hash4(&input[i..])];
        let mut steps = 0;
        while cand != u32::MAX && steps < MAX_CHAIN {
            let c = cand as usize;
            // Only a candidate that agrees one byte past the best match
            // can beat it; the rest are skipped without a full compare.
            if input[c + best_len] == input[i + best_len] {
                let l = common_prefix(&input[c..c + max], &input[i..]);
                if l > best_len {
                    best_len = l;
                    best_dist = i - c;
                    if l == max {
                        break; // Nothing can be longer than the rest.
                    }
                }
            }
            cand = self.prev[c];
            steps += 1;
        }
        (best_len, best_dist)
    }
}

/// Compresses `input`; always succeeds (worst case a few bytes of
/// framing over incompressible data).
pub fn compress(input: &[u8]) -> Vec<u8> {
    let n = input.len();
    let mut enc = Encoder::new();
    enc.u64(n as u64);

    let mut m = Matcher::new(input);
    let mut lit_start = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= n {
        let (mut best_len, mut best_dist) = m.longest(i);
        if best_len < MIN_MATCH {
            m.insert(i);
            i += 1;
            continue;
        }
        // Lazy step: if the position one byte later starts a strictly
        // longer match, demote this byte to a literal and retry there.
        loop {
            m.insert(i);
            if i + 1 + MIN_MATCH > n {
                break;
            }
            let (len, dist) = m.longest(i + 1);
            if len > best_len {
                i += 1;
                best_len = len;
                best_dist = dist;
            } else {
                break;
            }
        }
        enc.bytes(&input[lit_start..i]);
        enc.u64(best_len as u64);
        enc.u64(best_dist as u64);
        // Index every position the match covers so later data can
        // reference into it (i itself was inserted above).
        let end = i + best_len;
        i += 1;
        while i < end && i + MIN_MATCH <= n {
            m.insert(i);
            i += 1;
        }
        i = end;
        lit_start = i;
    }
    enc.bytes(&input[lit_start..]);
    enc.u64(0); // terminator
    enc.into_bytes()
}

/// Decompresses `bytes`, validating lengths, distances, and the final
/// size. The error is a stable diagnostic fragment.
pub fn decompress(bytes: &[u8]) -> Result<Vec<u8>, &'static str> {
    let mut dec = Decoder::new(bytes);
    let err = "payload decompression failed";
    let out_len = dec.u64().map_err(|_| err)? as usize;
    if out_len > MAX_OUTPUT {
        return Err(err);
    }
    let mut out: Vec<u8> = Vec::with_capacity(out_len.min(1 << 22));
    loop {
        let lit = dec.bytes_ref().map_err(|_| err)?;
        if out.len() + lit.len() > out_len {
            return Err(err);
        }
        out.extend_from_slice(lit);
        let match_len = dec.u64().map_err(|_| err)? as usize;
        if match_len == 0 {
            break;
        }
        let dist = dec.u64().map_err(|_| err)? as usize;
        if dist == 0 || dist > out.len() || out.len() + match_len > out_len {
            return Err(err);
        }
        // A match may overlap its own output (`dist < match_len`): the
        // result is the last `dist` bytes repeated. Each pass copies
        // everything produced since `start`, so the chunk doubles and a
        // `dist == 1` run costs log(len) copies, not len pushes.
        let start = out.len() - dist;
        let end = out.len() + match_len;
        while out.len() < end {
            let chunk = (out.len() - start).min(end - out.len());
            out.extend_from_within(start..start + chunk);
        }
    }
    if !dec.is_done() || out.len() != out_len {
        return Err(err);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let packed = compress(data);
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn roundtrips() {
        roundtrip(b"");
        roundtrip(b"abc");
        roundtrip(b"aaaaaaaaaaaaaaaaaaaaaaaa");
        roundtrip(b"the quick brown fox jumps over the lazy dog");
        // Pseudo-random bytes (incompressible path).
        let mut x = 0x9e3779b97f4a7c15u64;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        roundtrip(&noise);
    }

    #[test]
    fn common_prefix_matches_the_bytewise_definition() {
        let mut x = 0x2545f4914f6cdd1du64;
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 40] {
            for agree in 0..=len {
                let a: Vec<u8> = (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x as u8
                    })
                    .collect();
                let mut b = a.clone();
                if agree < len {
                    b[agree] ^= 0x40;
                }
                assert_eq!(common_prefix(&a, &b), agree, "len {len}");
            }
        }
    }

    #[test]
    fn templated_text_compresses_hard() {
        let mut doc = Vec::new();
        for i in 0..200 {
            doc.extend_from_slice(
                format!(
                    "<html><head><title>product {i}</title></head>\
                     <body><h1>product {i}</h1><p>in stock: yes</p>\
                     <p>price: {}</p></body></html>\n",
                    i * 3
                )
                .as_bytes(),
            );
        }
        let packed = compress(&doc);
        assert!(
            packed.len() * 6 < doc.len(),
            "expected >6x on templated text, got {} -> {}",
            doc.len(),
            packed.len()
        );
        assert_eq!(decompress(&packed).unwrap(), doc);
    }

    /// Seeded templated pages of varying length, with runs, near-repeats
    /// and a match that reaches the end of the input.
    fn templated_inputs() -> Vec<Vec<u8>> {
        let mut x = 0x853c_49e6_748f_ea9bu64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut inputs = Vec::new();
        for pages in [1u64, 3, 17, 60, 240] {
            let mut doc = Vec::new();
            for _ in 0..pages {
                let id = next(1000);
                let body = "lorem ipsum ".repeat(next(12) as usize);
                doc.extend_from_slice(
                    format!(
                        "<div class=\"row\"><a href=\"/item/{id}\">item {id}</a>\
                         <span>{body}</span><b>{}</b></div>\n",
                        next(97)
                    )
                    .as_bytes(),
                );
                doc.extend(std::iter::repeat_n(b'=', next(40) as usize));
            }
            let tail = doc[..doc.len().min(64)].to_vec();
            doc.extend_from_slice(&tail);
            inputs.push(doc);
        }
        inputs
    }

    #[test]
    fn encoder_output_is_pinned() {
        // The encoder's parse is part of the segment format's bytes. The
        // digest pins the output of a chain walk that compares every
        // candidate in full; the skips in `Matcher::longest` must choose
        // the same matches.
        let mut digest = Vec::new();
        for input in templated_inputs() {
            let packed = compress(&input);
            assert_eq!(decompress(&packed).unwrap(), input);
            digest.extend_from_slice(&orochi_common::hash::fnv1a(&packed).to_le_bytes());
        }
        assert_eq!(orochi_common::hash::fnv1a(&digest), 0xf009_4144_1438_f637);
    }

    #[test]
    fn overlapping_match_roundtrips() {
        // Period-1 and period-3 repetitions force overlapping copies.
        let data = [b"x".repeat(100), b"abc".repeat(40)].concat();
        roundtrip(&data);
    }

    /// A hand-built stream: `prefix` as literals, then one match.
    fn literal_then_match(prefix: &[u8], match_len: usize, dist: usize) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.u64((prefix.len() + match_len) as u64);
        enc.bytes(prefix);
        enc.u64(match_len as u64);
        enc.u64(dist as u64);
        enc.bytes(b"");
        enc.u64(0);
        enc.into_bytes()
    }

    #[test]
    fn self_overlapping_matches_repeat_the_last_dist_bytes() {
        // The chunked copy's edge: every distance from a one-byte run up
        // to a match that overlaps its own output by 1..=9 bytes, at
        // lengths on both sides of each chunk doubling.
        let prefix = b"0123456789";
        for dist in 1..=prefix.len() {
            for match_len in (1..=4 * dist + 3).chain([dist + 9, 1000]) {
                let expected: Vec<u8> = (0..prefix.len() + match_len)
                    .map(|k| {
                        if k < prefix.len() {
                            prefix[k]
                        } else {
                            prefix[prefix.len() - dist + (k - prefix.len()) % dist]
                        }
                    })
                    .collect();
                let packed = literal_then_match(prefix, match_len, dist);
                assert_eq!(
                    decompress(&packed).unwrap(),
                    expected,
                    "dist {dist} len {match_len}"
                );
            }
        }
    }

    #[test]
    fn hostile_inputs_are_rejected() {
        // Declared length never arrives.
        let mut enc = Encoder::new();
        enc.u64(100);
        enc.bytes(b"ab");
        enc.u64(0);
        assert!(decompress(&enc.into_bytes()).is_err());
        // Match distance beyond the output produced so far.
        let mut enc = Encoder::new();
        enc.u64(50);
        enc.bytes(b"ab");
        enc.u64(8);
        enc.u64(99);
        enc.u64(0);
        assert!(decompress(&enc.into_bytes()).is_err());
        // Truncated stream.
        let good = compress(b"hello hello hello hello hello");
        assert!(decompress(&good[..good.len() - 2]).is_err());
        // Trailing garbage.
        let mut padded = compress(b"abc").to_vec();
        padded.push(7);
        assert!(decompress(&padded).is_err());
    }
}
