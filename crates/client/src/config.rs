//! The client side of the protocol registry: per-user state for a
//! [`Method`].
//!
//! Before this crate, every front end re-implemented a `match method`
//! block to build per-user client state. [`ClientConfig`] holds a method's
//! [`Protocol`] from `Method::resolve` — the resolution
//! `ldp_runtime::ShardedAggregator` builds the server side from — and
//! [`ClientConfig::build_state`] is the single constructor everything
//! dispatches through.

use crate::state::{ClientState, DBitState, LolohaState};
use crate::store::{CheckpointMeta, ClientStoreError};
use ldp_hash::CarterWegman;
use ldp_longitudinal::{DBitFlipClient, LgrrClient, LongitudinalUeClient};
use ldp_primitives::error::ParamError;
use ldp_rand::LdpRng;
use ldp_runtime::{Method, Protocol};
use loloha::LolohaClient;

/// A resolved client-side protocol configuration: everything needed to
/// construct one user's [`ClientState`] except the user's RNG stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientConfig {
    method: Method,
    k: u64,
    eps_inf: f64,
    eps_first: f64,
    protocol: Protocol,
}

impl ClientConfig {
    /// Resolves `method` over domain `[0, k)` at budgets
    /// `0 < eps_first < eps_inf` through `Method::resolve`.
    pub fn for_method(
        method: Method,
        k: u64,
        eps_inf: f64,
        eps_first: f64,
    ) -> Result<Self, ParamError> {
        Ok(Self {
            method,
            k,
            eps_inf,
            eps_first,
            protocol: method.resolve(k, eps_inf, eps_first)?,
        })
    }

    /// The registry method this config resolves.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The method's resolved parameters.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Builds one user's client state from the registry — the single
    /// dispatch point that replaced the per-front-end `match` blocks.
    /// Construction may draw from `rng` (LOLOHA samples its hash function,
    /// dBitFlipPM its bucket positions), which is why restoring a
    /// checkpoint re-derives the same `(seed, user)` streams.
    pub fn build_state(&self, rng: &mut LdpRng) -> Result<Box<dyn ClientState>, ParamError> {
        match self.protocol {
            Protocol::Ue(chain) => Ok(Box::new(LongitudinalUeClient::new(
                chain,
                self.k,
                self.eps_inf,
                self.eps_first,
            )?)),
            Protocol::Lgrr => Ok(Box::new(LgrrClient::new(
                self.k,
                self.eps_inf,
                self.eps_first,
            )?)),
            Protocol::Loloha(params) => {
                let family =
                    CarterWegman::new(params.g()).ok_or(ParamError::InvalidG { g: params.g() })?;
                let client = LolohaClient::new(&family, self.k, params, rng)?;
                Ok(Box::new(LolohaState::new(client)))
            }
            Protocol::DBit { b, d } => {
                let client = DBitFlipClient::new(self.k, b, d, self.eps_inf, rng)?;
                Ok(Box::new(DBitState::new(client)))
            }
        }
    }

    /// The checkpoint-header fingerprint of this configuration under
    /// `seed`.
    pub fn meta(&self, seed: u64) -> CheckpointMeta {
        let (g, b, d) = match self.protocol {
            Protocol::Loloha(params) => (params.g(), 0, 0),
            Protocol::DBit { b, d } => (0, b, d),
            Protocol::Ue(_) | Protocol::Lgrr => (0, 0, 0),
        };
        CheckpointMeta {
            method_tag: self.method_tag(),
            k: self.k,
            g,
            b,
            d,
            eps_inf: self.eps_inf,
            eps_first: self.eps_first,
            seed,
        }
    }

    /// Verifies a checkpoint header against this configuration and `seed`;
    /// any disagreement makes the checkpoint foreign.
    pub fn verify_meta(&self, meta: &CheckpointMeta, seed: u64) -> Result<(), ClientStoreError> {
        let want = self.meta(seed);
        if meta.method_tag != want.method_tag {
            return Err(ClientStoreError::Mismatch("method differs"));
        }
        if meta.k != want.k {
            return Err(ClientStoreError::Mismatch("domain size differs"));
        }
        if (meta.g, meta.b, meta.d) != (want.g, want.b, want.d) {
            return Err(ClientStoreError::Mismatch("reduced domain differs"));
        }
        if meta.eps_inf.to_bits() != want.eps_inf.to_bits()
            || meta.eps_first.to_bits() != want.eps_first.to_bits()
        {
            return Err(ClientStoreError::Mismatch("budgets differ"));
        }
        if meta.seed != want.seed {
            return Err(ClientStoreError::Mismatch("seed differs"));
        }
        Ok(())
    }

    fn method_tag(&self) -> u8 {
        // Pinned on-disk constants: the checkpoint format depends on
        // these values staying fixed forever. Never derive them from
        // enum ordering — reordering `Method::all()` must not be able to
        // silently re-tag existing checkpoint files.
        match self.method {
            Method::Rappor => 0,
            Method::LOsue => 1,
            Method::LOue => 2,
            Method::LSoue => 3,
            Method::LGrr => 4,
            Method::BiLoloha => 5,
            Method::OLoloha => 6,
            Method::OneBitFlip => 7,
            Method::BBitFlip => 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_rand::derive_rng;
    use ldp_runtime::ShardedAggregator;

    #[test]
    fn every_method_resolves_and_builds() {
        // k = 360 and 361 straddle the dBitFlipPM bucket rule (b = k, then
        // b = ⌊k/4⌋); the checkpoint header's (g, b, d) must match the
        // aggregator built for the same method on both sides of it.
        for k in [2u64, 24, 360, 361, 1024] {
            for method in Method::all() {
                let cfg = ClientConfig::for_method(method, k, 2.0, 1.0).unwrap();
                let state = cfg.build_state(&mut derive_rng(1, 0)).unwrap();
                assert_eq!(state.privacy_spent(), 0.0, "{method:?}");
                assert_eq!(state.distinct_classes(), 0, "{method:?}");
                let agg = ShardedAggregator::for_method(method, k, 2.0, 1.0, 1).unwrap();
                let r = agg.reduced_domain().unwrap_or(0);
                let want = match method {
                    Method::BiLoloha | Method::OLoloha => (r, 0, 0),
                    Method::OneBitFlip => (0, r, 1),
                    Method::BBitFlip => (0, r, r),
                    _ => (0, 0, 0),
                };
                let meta = cfg.meta(0);
                assert_eq!((meta.g, meta.b, meta.d), want, "{method:?} k={k}");
            }
        }
    }

    #[test]
    fn method_tags_are_pinned_on_disk_constants() {
        // These exact values are baked into every checkpoint file ever
        // written; changing one requires a format VERSION bump.
        let expected = [
            (Method::Rappor, 0u8),
            (Method::LOsue, 1),
            (Method::LOue, 2),
            (Method::LSoue, 3),
            (Method::LGrr, 4),
            (Method::BiLoloha, 5),
            (Method::OLoloha, 6),
            (Method::OneBitFlip, 7),
            (Method::BBitFlip, 8),
        ];
        for (method, tag) in expected {
            let got = ClientConfig::for_method(method, 24, 2.0, 1.0)
                .unwrap()
                .meta(0)
                .method_tag;
            assert_eq!(got, tag, "{method:?} re-tagged: bump the format version");
        }
    }

    #[test]
    fn verify_meta_rejects_foreign_headers() {
        let cfg = ClientConfig::for_method(Method::Rappor, 24, 2.0, 1.0).unwrap();
        assert!(cfg.verify_meta(&cfg.meta(7), 7).is_ok());
        let mut m = cfg.meta(7);
        m.seed = 8;
        assert!(matches!(
            cfg.verify_meta(&m, 7),
            Err(ClientStoreError::Mismatch("seed differs"))
        ));
        let mut m = cfg.meta(7);
        m.k = 25;
        assert!(matches!(
            cfg.verify_meta(&m, 7),
            Err(ClientStoreError::Mismatch("domain size differs"))
        ));
        let other = ClientConfig::for_method(Method::LGrr, 24, 2.0, 1.0).unwrap();
        assert!(cfg.verify_meta(&other.meta(7), 7).is_err());
        // The retired custom-LOLOHA tag is a foreign method like any other,
        // even on an otherwise matching BiLOLOHA header.
        let bi = ClientConfig::for_method(Method::BiLoloha, 24, 2.0, 1.0).unwrap();
        let mut m = bi.meta(7);
        m.method_tag = 255;
        assert!(matches!(
            bi.verify_meta(&m, 7),
            Err(ClientStoreError::Mismatch("method differs"))
        ));
    }

    #[test]
    fn bad_budgets_are_rejected() {
        // LOLOHA budgets resolve eagerly; UE budgets resolve at build.
        assert!(ClientConfig::for_method(Method::BiLoloha, 24, 0.0, 0.0).is_err());
        let cfg = ClientConfig::for_method(Method::Rappor, 24, 1.0, 1.0).unwrap();
        assert!(cfg.build_state(&mut derive_rng(2, 0)).is_err());
    }
}
