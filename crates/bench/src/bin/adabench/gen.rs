//! Seeded input generators. Every input is a pure function of
//! `(seed, index)`, so the bench thread can recompute any item's inline
//! reference without storing the stream, and the same `--seed` always
//! gives the same inputs. The generators are the benchmark's own: a
//! change to the repository's RNG helpers must not change the inputs.

/// SplitMix64 finaliser: a bijective 64-bit mixer.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The `index`-th draw of stream `seed`.
pub fn draw(seed: u64, index: u64) -> u64 {
    splitmix(seed ^ splitmix(index))
}

/// An independent child stream of `seed` (per phase, per rep).
pub fn child(seed: u64, label: u64) -> u64 {
    splitmix(seed.rotate_left(17) ^ label.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// A uniform draw in `[0, 1)`.
pub fn unit(seed: u64, index: u64) -> f64 {
    (draw(seed, index) >> 11) as f64 / (1u64 << 53) as f64
}

/// `wire_*` input: a 40-bit value, so `(x + 1) * 2` never overflows.
pub fn wire_item(seed: u64, index: u64) -> u64 {
    draw(seed, index) >> 24
}

/// Distinct keys of the `keyed_dag` stream.
pub const KEYS: u64 = 4096;
/// Keys that together draw [`HOT_SHARE_PCT`] % of the items.
pub const HOT_KEYS: u64 = 16;
pub const HOT_SHARE_PCT: u64 = 20;

/// `keyed_dag` input record: key in the high 32 bits, payload in the
/// low 32. A fifth of the records land on 16 seed-chosen hot keys, the
/// rest spread uniformly over all 4096.
pub fn keyed_record(seed: u64, index: u64) -> u64 {
    let h = draw(seed, index);
    let pick = h >> 32;
    let key = if pick % 100 < HOT_SHARE_PCT {
        // The hot set is a seeded affine slice of the key space.
        let slot = (pick / 100) % HOT_KEYS;
        (splitmix(seed) % KEYS + slot * (KEYS / HOT_KEYS + 1)) % KEYS
    } else {
        (pick / 100) % KEYS
    };
    (key << 32) | (h & 0xFFFF_FFFF)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let a: Vec<u64> = (0..64).map(|i| wire_item(42, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| wire_item(42, i)).collect();
        let c: Vec<u64> = (0..64).map(|i| wire_item(43, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&x| x < 1 << 40));
        assert_ne!(child(42, 0), child(42, 1));
        assert_eq!(keyed_record(7, 9), keyed_record(7, 9));
        assert!((0..1000).all(|i| (0.0..1.0).contains(&unit(5, i))));
    }

    #[test]
    fn keyed_stream_has_the_declared_skew() {
        let n = 200_000u64;
        let mut counts = vec![0u64; KEYS as usize];
        for i in 0..n {
            let key = keyed_record(42, i) >> 32;
            assert!(key < KEYS);
            counts[key as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "every key occurs");
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let hot: u64 = counts[..HOT_KEYS as usize].iter().sum();
        let share = hot as f64 / n as f64;
        // 20 % aimed at the hot keys plus their uniform share.
        assert!((0.19..0.22).contains(&share), "hot share {share}");
    }
}
