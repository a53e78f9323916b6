//! SplitMix64, the workspace's one cheap 64-bit mixer.
//!
//! Seed derivation, signature tags, structural block identities, state
//! fingerprints and rolling digests all need a fast, well-distributed,
//! platform-stable mix of 64-bit words, and none needs collision
//! resistance against an adversary. Both forms here end in Steele, Lea and
//! Flood's SplitMix64 output finalizer; they differ in how the input
//! enters it.

/// The golden-ratio increment of the SplitMix64 sequence.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 output finalizer.
#[inline]
fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One step of the SplitMix64 generator from state `z`: the state moved by
/// the golden increment, then finalized.
///
/// ```
/// // The first output of a SplitMix64 generator seeded with 0.
/// assert_eq!(am_core::splitmix::splitmix64(0), 0xe220_a839_7b1d_cdaf);
/// ```
#[inline]
pub fn splitmix64(z: u64) -> u64 {
    finalize(z.wrapping_add(GOLDEN))
}

/// Mixes `v` into the running hash `h`: `v` spread by the golden
/// multiplier, xored in, then finalized. Order-sensitive, so a fold over a
/// sequence is a digest of the sequence.
#[inline]
pub fn mix(h: u64, v: u64) -> u64 {
    finalize(h ^ v.wrapping_mul(GOLDEN))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_is_the_reference_sequence() {
        // The first outputs of `SplitMix64` seeded with 1 234 567 in the
        // reference C implementation (state advanced by the increment
        // before each output).
        let mut state = 1_234_567u64;
        let out: Vec<u64> = (0..3)
            .map(|_| {
                let z = splitmix64(state);
                state = state.wrapping_add(GOLDEN);
                z
            })
            .collect();
        assert_eq!(
            out,
            [
                6_457_827_717_110_365_317,
                3_203_168_211_198_807_973,
                9_817_491_932_198_370_423
            ]
        );
    }

    #[test]
    fn mix_is_order_sensitive_and_matches_splitmix_at_golden_one() {
        assert_ne!(mix(mix(0, 1), 2), mix(mix(0, 2), 1));
        // v = 1 spreads to the golden increment; xor and add agree on 0.
        assert_eq!(mix(0, 1), splitmix64(0));
    }
}
