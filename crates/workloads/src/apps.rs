//! Application catalogue: the four ported benchmarks as schedulable
//! units.

use crate::{gaussian, knearest, needle, srad};
use hq_gpu::program::Program;
use std::fmt;

/// One of the four ported Rodinia benchmarks (Table I).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AppKind {
    /// Gaussian Elimination (`gaussian`).
    Gaussian,
    /// Needleman-Wunsch (`nw` / `needle`).
    Needle,
    /// Speckle Reducing Anisotropic Diffusion (`srad_v2`).
    Srad,
    /// k-Nearest Neighbors (`nn` / `knearest`).
    Knearest,
}

impl AppKind {
    /// All four benchmarks, in Table I order.
    pub const ALL: [AppKind; 4] = [
        AppKind::Gaussian,
        AppKind::Knearest,
        AppKind::Needle,
        AppKind::Srad,
    ];

    /// Short benchmark name (the paper's usage).
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Gaussian => "gaussian",
            AppKind::Needle => "needle",
            AppKind::Srad => "srad",
            AppKind::Knearest => "knearest",
        }
    }

    /// Parse a benchmark name (accepts the paper's aliases `nw`/`nn`).
    pub fn parse(s: &str) -> Option<AppKind> {
        match s.to_ascii_lowercase().as_str() {
            "gaussian" => Some(AppKind::Gaussian),
            "needle" | "nw" => Some(AppKind::Needle),
            "srad" | "srad_v2" => Some(AppKind::Srad),
            "knearest" | "nn" => Some(AppKind::Knearest),
            _ => None,
        }
    }

    /// Build the simulator program for one instance of this benchmark
    /// at the paper's default problem size (Table III).
    pub fn program(self, instance: usize) -> Program {
        match self {
            AppKind::Gaussian => gaussian::program(gaussian::GaussianConfig::default(), instance),
            AppKind::Needle => needle::program(needle::NeedleConfig::default(), instance),
            AppKind::Srad => srad::program(srad::SradConfig::default(), instance),
            AppKind::Knearest => knearest::program(knearest::KnearestConfig::default(), instance),
        }
    }

    /// The six heterogeneous pairs evaluated in Figures 4/6/7/8/9.
    pub fn pairs() -> Vec<(AppKind, AppKind)> {
        let mut out = Vec::new();
        for (i, &a) in AppKind::ALL.iter().enumerate() {
            for &b in &AppKind::ALL[i + 1..] {
                out.push((a, b));
            }
        }
        out
    }
}

impl fmt::Display for AppKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_apps_six_pairs() {
        assert_eq!(AppKind::ALL.len(), 4);
        let pairs = AppKind::pairs();
        assert_eq!(pairs.len(), 6);
        // All distinct, no self-pairs.
        for (a, b) in &pairs {
            assert_ne!(a, b);
        }
    }

    #[test]
    fn parse_accepts_paper_aliases() {
        assert_eq!(AppKind::parse("nw"), Some(AppKind::Needle));
        assert_eq!(AppKind::parse("nn"), Some(AppKind::Knearest));
        assert_eq!(AppKind::parse("SRAD_V2"), Some(AppKind::Srad));
        assert_eq!(AppKind::parse("gaussian"), Some(AppKind::Gaussian));
        assert_eq!(AppKind::parse("bogus"), None);
    }

    #[test]
    fn programs_build_and_are_labelled() {
        for kind in AppKind::ALL {
            let p = kind.program(7);
            assert!(p.label.starts_with(kind.name()));
            assert!(p.label.ends_with("#7"));
            assert!(!p.ops.is_empty());
            assert!(p.kernel_launches() >= 1);
        }
    }

    #[test]
    fn roundtrip_name_parse() {
        for kind in AppKind::ALL {
            assert_eq!(AppKind::parse(kind.name()), Some(kind));
        }
    }
}
