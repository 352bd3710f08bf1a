//! The longitudinal protocols the aggregation runtime can serve.
//!
//! This is the method registry shared by every front end (simulator, CLI,
//! bench harness): one variant per protocol of the paper's §5 evaluation,
//! plus the paper's bucket-count rule for dBitFlipPM. [`Method::resolve`]
//! is the one place a method becomes parameters: client and server both
//! build from the [`Protocol`] it returns.

use ldp_longitudinal::UeChain;
use ldp_primitives::error::ParamError;
use loloha::LolohaParams;

/// The longitudinal protocols evaluated in the paper (plus the two L-UE
/// chaining extensions from Arcolezi et al. \[5\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// RAPPOR / L-SUE: SUE chained with SUE \[23\].
    Rappor,
    /// L-OSUE: OUE (PRR) chained with SUE (IRR) \[5\].
    LOsue,
    /// L-OUE: OUE chained with OUE (extension).
    LOue,
    /// L-SOUE: SUE chained with OUE (extension).
    LSoue,
    /// L-GRR: GRR chained with GRR \[5\].
    LGrr,
    /// BiLOLOHA: LOLOHA at g = 2 (privacy-tuned).
    BiLoloha,
    /// OLOLOHA: LOLOHA at the Eq. (6) optimal g (utility-tuned).
    OLoloha,
    /// 1BitFlipPM: dBitFlipPM with d = 1 (privacy-tuned) \[13\].
    OneBitFlip,
    /// bBitFlipPM: dBitFlipPM with d = b (utility-tuned) \[13\].
    BBitFlip,
}

impl Method {
    /// Display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Rappor => "RAPPOR",
            Method::LOsue => "L-OSUE",
            Method::LOue => "L-OUE",
            Method::LSoue => "L-SOUE",
            Method::LGrr => "L-GRR",
            Method::BiLoloha => "BiLOLOHA",
            Method::OLoloha => "OLOLOHA",
            Method::OneBitFlip => "1BitFlipPM",
            Method::BBitFlip => "bBitFlipPM",
        }
    }

    /// Parses a method from its registry name, case-insensitively, with
    /// the CLI's historical aliases (`l-sue` for RAPPOR, the bare
    /// `1bitflip`/`bbitflip` forms). Every [`Method::name`] round-trips.
    pub fn from_name(name: &str) -> Option<Method> {
        Some(match name.to_ascii_lowercase().as_str() {
            "rappor" | "l-sue" => Method::Rappor,
            "l-osue" => Method::LOsue,
            "l-oue" => Method::LOue,
            "l-soue" => Method::LSoue,
            "l-grr" => Method::LGrr,
            "biloloha" => Method::BiLoloha,
            "ololoha" => Method::OLoloha,
            "1bitflip" | "1bitflippm" => Method::OneBitFlip,
            "bbitflip" | "bbitflippm" => Method::BBitFlip,
            _ => return None,
        })
    }

    /// The seven methods of Figs. 3–4.
    pub fn paper_set() -> [Method; 7] {
        [
            Method::BBitFlip,
            Method::LOsue,
            Method::OLoloha,
            Method::Rappor,
            Method::BiLoloha,
            Method::OneBitFlip,
            Method::LGrr,
        ]
    }

    /// Every variant, for exhaustive sweeps and invariance tests.
    pub fn all() -> [Method; 9] {
        [
            Method::Rappor,
            Method::LOsue,
            Method::LOue,
            Method::LSoue,
            Method::LGrr,
            Method::BiLoloha,
            Method::OLoloha,
            Method::OneBitFlip,
            Method::BBitFlip,
        ]
    }

    /// Whether the method is single-round (no IRR step): only dBitFlipPM.
    pub fn single_round(&self) -> bool {
        matches!(self, Method::OneBitFlip | Method::BBitFlip)
    }

    /// The UE chain backing this method, if it is a UE-chained protocol.
    pub fn ue_chain(&self) -> Option<UeChain> {
        match self {
            Method::Rappor => Some(UeChain::SueSue),
            Method::LOsue => Some(UeChain::OueSue),
            Method::LOue => Some(UeChain::OueOue),
            Method::LSoue => Some(UeChain::SueOue),
            _ => None,
        }
    }

    /// Resolves this method over the domain `[0, k)` at budgets
    /// `0 < eps_first < eps_inf`: BiLOLOHA's `g = 2`, OLOLOHA's Eq. (6)
    /// optimal `g`, dBitFlipPM's `(b, d)` from [`dbit_buckets`]. Only the
    /// LOLOHA budgets are checked here; the client and server constructors
    /// that consume the [`Protocol`] check everything else.
    pub fn resolve(self, k: u64, eps_inf: f64, eps_first: f64) -> Result<Protocol, ParamError> {
        Ok(match self {
            Method::Rappor => Protocol::Ue(UeChain::SueSue),
            Method::LOsue => Protocol::Ue(UeChain::OueSue),
            Method::LOue => Protocol::Ue(UeChain::OueOue),
            Method::LSoue => Protocol::Ue(UeChain::SueOue),
            Method::LGrr => Protocol::Lgrr,
            Method::BiLoloha => Protocol::Loloha(LolohaParams::bi(eps_inf, eps_first)?),
            Method::OLoloha => Protocol::Loloha(LolohaParams::optimal(eps_inf, eps_first)?),
            Method::OneBitFlip | Method::BBitFlip => {
                let b = dbit_buckets(k);
                let d = if self == Method::OneBitFlip { 1 } else { b };
                Protocol::DBit { b, d }
            }
        })
    }
}

/// A [`Method`] resolved by [`Method::resolve`]: the parameters from which
/// client state, the server estimator and the aggregation dimension are
/// all built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Protocol {
    /// A unary-encoding chain (RAPPOR, L-OSUE, L-OUE, L-SOUE).
    Ue(UeChain),
    /// L-GRR.
    Lgrr,
    /// LOLOHA at a resolved hash range `g`.
    Loloha(LolohaParams),
    /// dBitFlipPM with `b` buckets, `d` of them sampled per user.
    DBit {
        /// Bucket count.
        b: u32,
        /// Sampled buckets per user.
        d: u32,
    },
}

impl Protocol {
    /// The aggregation dimension over the domain `[0, k)`: `b` for
    /// dBitFlipPM, `k` for every k-binned protocol. Every report index is
    /// below it.
    pub fn dim(&self, k: u64) -> usize {
        match self {
            Protocol::DBit { b, .. } => *b as usize,
            Protocol::Ue(_) | Protocol::Lgrr | Protocol::Loloha(_) => k as usize,
        }
    }

    /// The reduced domain: `g` for LOLOHA, `b` for dBitFlipPM.
    pub fn reduced_domain(&self) -> Option<u32> {
        match self {
            Protocol::Loloha(params) => Some(params.g()),
            Protocol::DBit { b, .. } => Some(*b),
            Protocol::Ue(_) | Protocol::Lgrr => None,
        }
    }
}

/// The paper's bucket choice for dBitFlipPM: `b = k` when `k ≤ 360`
/// (Syn, Adult), `b = ⌊k/4⌋` for the large census domains.
pub fn dbit_buckets(k: u64) -> u32 {
    if k <= 360 {
        k as u32
    } else {
        (k / 4) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(Method::Rappor.name(), "RAPPOR");
        assert_eq!(Method::BBitFlip.name(), "bBitFlipPM");
        assert_eq!(Method::OneBitFlip.name(), "1BitFlipPM");
    }

    #[test]
    fn every_name_parses_back_to_its_method() {
        for m in Method::all() {
            assert_eq!(Method::from_name(m.name()), Some(m), "{m:?}");
        }
        assert_eq!(Method::from_name("l-sue"), Some(Method::Rappor));
        assert_eq!(Method::from_name("1bitflip"), Some(Method::OneBitFlip));
        assert_eq!(Method::from_name("BBITFLIP"), Some(Method::BBitFlip));
        assert_eq!(Method::from_name("nope"), None);
    }

    #[test]
    fn paper_set_has_seven_methods() {
        let set = Method::paper_set();
        assert_eq!(set.len(), 7);
        assert!(!set.contains(&Method::LOue));
    }

    #[test]
    fn all_covers_paper_set_and_extensions() {
        let all = Method::all();
        assert_eq!(all.len(), 9);
        for m in Method::paper_set() {
            assert!(all.contains(&m), "{m:?}");
        }
        assert!(all.contains(&Method::LOue));
        assert!(all.contains(&Method::LSoue));
    }

    #[test]
    fn ue_chains_only_for_ue_methods() {
        assert_eq!(Method::Rappor.ue_chain(), Some(UeChain::SueSue));
        assert_eq!(Method::LOsue.ue_chain(), Some(UeChain::OueSue));
        assert_eq!(Method::LOue.ue_chain(), Some(UeChain::OueOue));
        assert_eq!(Method::LSoue.ue_chain(), Some(UeChain::SueOue));
        for m in [
            Method::LGrr,
            Method::BiLoloha,
            Method::OLoloha,
            Method::OneBitFlip,
            Method::BBitFlip,
        ] {
            assert_eq!(m.ue_chain(), None, "{m:?}");
        }
    }

    #[test]
    fn dbit_bucket_rule() {
        assert_eq!(dbit_buckets(96), 96);
        assert_eq!(dbit_buckets(360), 360);
        assert_eq!(dbit_buckets(1412), 353);
        assert_eq!(dbit_buckets(1234), 308);
    }
}
