//! The digest that keys the dedup index, under either [`DigestMode`]: one
//! implementation for the simulator's [`DeWrite`](crate::DeWrite) and the
//! engine's shard controllers.

use dewrite_hashes::{HashAlgorithm, HashCost, LineHasher, StrongKeyed, StrongScratch};

use crate::config::DigestMode;

/// A controller's line fingerprinter: the light hash, plus the strong
/// keyed digest and its reusable scratch state when the mode is
/// [`DigestMode::StrongKeyed`], so the per-write digest never allocates.
pub struct Digester {
    hasher: Box<dyn LineHasher>,
    /// `Some` iff the mode is [`DigestMode::StrongKeyed`].
    strong: Option<(StrongKeyed, StrongScratch)>,
}

impl std::fmt::Debug for Digester {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Digester")
            .field("hasher", &self.hasher.algorithm())
            .field("mode", &self.mode())
            .finish()
    }
}

impl Digester {
    /// A digester for `mode`: `light` fingerprints under
    /// [`DigestMode::Crc32Verify`]; under [`DigestMode::StrongKeyed`] the
    /// strong tag is keyed by a key derived from `key` (the
    /// memory-encryption key, so every controller of one system agrees).
    pub fn new(light: HashAlgorithm, mode: DigestMode, key: &[u8]) -> Self {
        Digester {
            hasher: light.hasher(),
            strong: (mode == DigestMode::StrongKeyed)
                .then(|| (StrongKeyed::derive(key), StrongScratch::new())),
        }
    }

    /// The digest mode this digester computes.
    #[inline]
    pub fn mode(&self) -> DigestMode {
        if self.strong.is_some() {
            DigestMode::StrongKeyed
        } else {
            DigestMode::Crc32Verify
        }
    }

    /// The light hash algorithm.
    pub fn algorithm(&self) -> HashAlgorithm {
        self.hasher.algorithm()
    }

    /// DeWrite's digest fold: XOR the 64-bit fingerprint's two 32-bit
    /// halves. It keys the hash table in CRC mode (zero-extended back to
    /// `u64`) and is the 4-byte colocated inverted-row digest in both modes
    /// (§III-C fixes that slot at 32 bits). For zero-extended CRC digests
    /// the fold is the identity.
    #[inline]
    pub fn fold(d: u64) -> u32 {
        (d ^ (d >> 32)) as u32
    }

    /// The index digest of `data`: the folded light hash zero-extended (so
    /// crc32-verify probe sequences match the seed), or the 64-bit strong
    /// keyed tag.
    #[inline]
    pub fn digest(&mut self, data: &[u8]) -> u64 {
        match self.strong.as_mut() {
            Some((strong, scratch)) => strong.digest_with(data, scratch),
            None => u64::from(Self::fold(self.hasher.digest(data))),
        }
    }

    /// [`digest`](Self::digest) without `&mut self`, for cold paths such
    /// as scrub (uses a throwaway scratch).
    pub fn digest_readonly(&self, data: &[u8]) -> u64 {
        match self.strong.as_ref() {
            Some((strong, _)) => strong.digest_with(data, &mut StrongScratch::new()),
            None => u64::from(Self::fold(self.hasher.digest(data))),
        }
    }

    /// Modeled hardware cost of one digest.
    #[inline]
    pub fn cost(&self) -> HashCost {
        if self.strong.is_some() {
            HashAlgorithm::StrongKeyed.cost()
        } else {
            self.hasher.cost()
        }
    }
}
