//! Trial-key derivation.
//!
//! A trial's identity is the 64-bit splitmix64 hash of its four coordinates
//! — experiment id, scenario fingerprint, base seed, engine-config
//! fingerprint — folded byte by byte through the same finalizer the
//! estimator uses for per-run seed derivation.  The key is what the journal
//! indexes commits by and what a resumed sweep looks up before deciding to
//! recompute, so the derivation is **frozen**: `trial_key_is_pinned` in
//! this module holds golden values that fail loudly if anyone changes the
//! mixing, which would silently orphan every existing journal.

/// A trial's 64-bit identity hash.
pub type TrialKey = u64;

/// The splitmix64 finalizer (Steele, Lea, Flood 2014): a bijective avalanche
/// mix of one 64-bit word.
#[inline]
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Incremental splitmix64-based hasher for trial keys.
///
/// Every absorbed word passes through the full finalizer, so short inputs
/// still avalanche; strings absorb their bytes in 8-byte little-endian
/// chunks followed by their length (so `("ab", "c")` and `("a", "bc")`
/// cannot collide through concatenation).
#[derive(Debug, Clone)]
pub struct KeyHasher {
    state: u64,
}

impl KeyHasher {
    /// Starts a hasher from the fixed domain tag.
    #[must_use]
    pub fn new() -> Self {
        KeyHasher {
            // "gossip-store v1" domain separation: journals must not
            // collide with any other splitmix64 use in the workspace.
            state: splitmix64(0x6753_544F_5245_0001),
        }
    }

    /// Absorbs one 64-bit word.
    pub fn write_u64(&mut self, word: u64) {
        self.state = splitmix64(self.state ^ word);
    }

    /// Absorbs a string: its bytes in 8-byte little-endian chunks (final
    /// chunk zero-padded), then its length.
    pub fn write_str(&mut self, text: &str) {
        for chunk in text.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        self.write_u64(text.len() as u64);
    }

    /// Finishes the hash.
    #[must_use]
    pub fn finish(&self) -> TrialKey {
        splitmix64(self.state)
    }
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Derives the journal key of one trial from its four coordinates.
///
/// * `experiment` — the tier's CLI token (e.g. `"SIM_SCALE"`).
/// * `fingerprint` — the stable scenario fingerprint (every generator
///   parameter encoded; see `gossip_workloads::Scenario::fingerprint`).
/// * `seed` — the harness base seed (per-trial offsets are derived
///   deterministically from it, so the base seed pins them all).
/// * `engine` — the engine-config fingerprint (the quick/full grid —
///   everything that changes a trial's bytes other than the seed; job
///   counts are deliberately excluded because outputs are byte-identical
///   at any width).
#[must_use]
pub fn trial_key(experiment: &str, fingerprint: &str, seed: u64, engine: &str) -> TrialKey {
    let mut hasher = KeyHasher::new();
    hasher.write_str(experiment);
    hasher.write_str(fingerprint);
    hasher.write_u64(seed);
    hasher.write_str(engine);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // First two outputs of the published splitmix64 stream at seed 0
        // (state advances by the golden-gamma increment between calls).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn trial_key_is_pinned() {
        // Golden values: changing the key derivation orphans every journal
        // on disk, so it must be a deliberate, schema-bumped decision.
        assert_eq!(
            trial_key(
                "SIM_SCALE",
                "chordring(n=1000)",
                0xC0FFEE,
                "quick;engine=legacy"
            ),
            0x4a31_1fff_dc1e_6939
        );
        assert_eq!(
            trial_key("E9", "s=0.5", 99, "full;engine=legacy"),
            0x9a0d_ecd5_41bc_4b8a
        );
    }

    #[test]
    fn keys_separate_every_coordinate() {
        let base = trial_key("SIM_SCALE", "chordring(n=1000)", 7, "quick;engine=legacy");
        assert_ne!(
            base,
            trial_key("SCALE", "chordring(n=1000)", 7, "quick;engine=legacy")
        );
        assert_ne!(
            base,
            trial_key("SIM_SCALE", "chordring(n=2000)", 7, "quick;engine=legacy")
        );
        assert_ne!(
            base,
            trial_key("SIM_SCALE", "chordring(n=1000)", 8, "quick;engine=legacy")
        );
        assert_ne!(
            base,
            trial_key("SIM_SCALE", "chordring(n=1000)", 7, "full;engine=legacy")
        );
        // Concatenation shuffles across field boundaries must not collide.
        assert_ne!(trial_key("AB", "C", 0, ""), trial_key("A", "BC", 0, ""));
    }
}
