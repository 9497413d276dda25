//! Wire-addressable catalog of links and fault chains.
//!
//! A worker process reconstructs the coordinator's exact campaign
//! from the `hello` message alone, so every link and fault chain the
//! distributed layer supports needs a stable, space-free string id that
//! round-trips bit-exactly. That is deliberately a *catalog*, not
//! open-ended serialisation: the ids cover the PHY generations and the
//! single-injector fault chains the campaigns sweep, and anything
//! outside the catalog simply runs in-process instead.

use wlan_core::dsss::DsssRate;
use wlan_core::linksim::{DsssLink, FhssLink, OfdmLink, PhyLink};
use wlan_core::ofdm::OfdmRate;
use wlan_fault::{FaultChain, FaultKind};
use wlan_runner::journal::{f64_from_hex, f64_to_hex};

/// A wire-addressable PHY link (AWGN variants of each generation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSpec {
    /// 1 Mbps FHSS 2-FSK.
    Fhss,
    /// First/second-generation DSSS/CCK at the given rate.
    Dsss(DsssRate),
    /// 802.11a OFDM over AWGN at the given rate.
    Ofdm(OfdmRate),
}

impl LinkSpec {
    /// The stable wire id (no spaces), e.g. `fhss`, `dsss:11`, `ofdm:54`.
    pub fn id(&self) -> String {
        match self {
            LinkSpec::Fhss => "fhss".to_owned(),
            LinkSpec::Dsss(rate) => {
                let tag = match rate {
                    DsssRate::Dbpsk1M => "1",
                    DsssRate::Dqpsk2M => "2",
                    DsssRate::Cck5_5M => "5.5",
                    DsssRate::Cck11M => "11",
                };
                format!("dsss:{tag}")
            }
            LinkSpec::Ofdm(rate) => {
                let tag = match rate {
                    OfdmRate::R6 => "6",
                    OfdmRate::R9 => "9",
                    OfdmRate::R12 => "12",
                    OfdmRate::R18 => "18",
                    OfdmRate::R24 => "24",
                    OfdmRate::R36 => "36",
                    OfdmRate::R48 => "48",
                    OfdmRate::R54 => "54",
                };
                format!("ofdm:{tag}")
            }
        }
    }

    /// Inverse of [`LinkSpec::id`]; `None` for ids outside the catalog.
    pub fn parse(id: &str) -> Option<LinkSpec> {
        if id == "fhss" {
            return Some(LinkSpec::Fhss);
        }
        if let Some(tag) = id.strip_prefix("dsss:") {
            let rate = match tag {
                "1" => DsssRate::Dbpsk1M,
                "2" => DsssRate::Dqpsk2M,
                "5.5" => DsssRate::Cck5_5M,
                "11" => DsssRate::Cck11M,
                _ => return None,
            };
            return Some(LinkSpec::Dsss(rate));
        }
        if let Some(tag) = id.strip_prefix("ofdm:") {
            let rate = match tag {
                "6" => OfdmRate::R6,
                "9" => OfdmRate::R9,
                "12" => OfdmRate::R12,
                "18" => OfdmRate::R18,
                "24" => OfdmRate::R24,
                "36" => OfdmRate::R36,
                "48" => OfdmRate::R48,
                "54" => OfdmRate::R54,
                _ => return None,
            };
            return Some(LinkSpec::Ofdm(rate));
        }
        None
    }

    /// Constructs the link this spec names.
    pub fn build(&self) -> Box<dyn PhyLink> {
        match self {
            LinkSpec::Fhss => Box::new(FhssLink),
            LinkSpec::Dsss(rate) => Box::new(DsssLink { rate: *rate }),
            LinkSpec::Ofdm(rate) => Box::new(OfdmLink::awgn(*rate)),
        }
    }

    /// Every catalogued link, in generation order.
    pub fn all() -> Vec<LinkSpec> {
        let mut out = vec![LinkSpec::Fhss];
        for rate in [
            DsssRate::Dbpsk1M,
            DsssRate::Dqpsk2M,
            DsssRate::Cck5_5M,
            DsssRate::Cck11M,
        ] {
            out.push(LinkSpec::Dsss(rate));
        }
        for rate in [
            OfdmRate::R6,
            OfdmRate::R9,
            OfdmRate::R12,
            OfdmRate::R18,
            OfdmRate::R24,
            OfdmRate::R36,
            OfdmRate::R48,
            OfdmRate::R54,
        ] {
            out.push(LinkSpec::Ofdm(rate));
        }
        out
    }
}

/// A wire-addressable fault chain: clean, or one catalogued injector at
/// a bit-exact severity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// No faults.
    Clean,
    /// One injector from the [`FaultKind`] catalog.
    Single {
        /// The fault family.
        kind: FaultKind,
        /// Severity in `[0, 1]` (hex bit pattern on the wire).
        severity: f64,
    },
}

impl FaultSpec {
    /// The stable wire id, e.g. `clean` or
    /// `single:adc-clip:3fe0000000000000`.
    pub fn id(&self) -> String {
        match self {
            FaultSpec::Clean => "clean".to_owned(),
            FaultSpec::Single { kind, severity } => {
                format!("single:{}:{}", kind.name(), f64_to_hex(*severity))
            }
        }
    }

    /// Inverse of [`FaultSpec::id`]; `None` for unknown kinds, malformed
    /// severities, or severities outside `[0, 1]`.
    pub fn parse(id: &str) -> Option<FaultSpec> {
        if id == "clean" {
            return Some(FaultSpec::Clean);
        }
        let rest = id.strip_prefix("single:")?;
        let (name, sev_hex) = rest.rsplit_once(':')?;
        let kind = FaultKind::all().into_iter().find(|k| k.name() == name)?;
        let severity = f64_from_hex(sev_hex)?;
        if !severity.is_finite() || !(0.0..=1.0).contains(&severity) {
            return None;
        }
        Some(FaultSpec::Single { kind, severity })
    }

    /// Constructs the fault chain this spec names.
    pub fn build(&self) -> FaultChain {
        match self {
            FaultSpec::Clean => FaultChain::clean(),
            FaultSpec::Single { kind, severity } => kind.chain(*severity),
        }
    }
}

/// A digest of the whole catalog: FNV-1a over every link id and every
/// fault-kind name, in catalog order.
///
/// The TCP handshake exchanges this alongside the protocol version.
/// Two binaries that frame messages identically but were built from
/// different catalogs would not disagree loudly — a worker would
/// happily run `ofdm:12` with *its* idea of what that id means — so
/// the digest turns "silently different results" into a typed
/// [`ProtoError::Incompatible`](crate::proto::ProtoError::Incompatible)
/// at connect time.
pub fn catalog_digest() -> u64 {
    let mut text = String::new();
    for link in LinkSpec::all() {
        text.push_str(&link.id());
        text.push('\n');
    }
    for kind in FaultKind::all() {
        text.push_str(kind.name());
        text.push('\n');
    }
    wlan_runner::journal::fnv1a64(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_digest_is_stable_and_sensitive() {
        // Deterministic across calls (the handshake depends on it).
        assert_eq!(catalog_digest(), catalog_digest());
        // Sanity: it actually covers the catalog — recomputing with one
        // link removed gives a different value.
        let mut text = String::new();
        for link in LinkSpec::all().iter().skip(1) {
            text.push_str(&link.id());
            text.push('\n');
        }
        for kind in FaultKind::all() {
            text.push_str(kind.name());
            text.push('\n');
        }
        assert_ne!(
            catalog_digest(),
            wlan_runner::journal::fnv1a64(text.as_bytes())
        );
    }

    #[test]
    fn every_link_id_round_trips_and_builds_the_same_link() {
        for spec in LinkSpec::all() {
            let id = spec.id();
            assert!(!id.contains(' '), "{id}");
            assert_eq!(LinkSpec::parse(&id), Some(spec), "{id}");
            // Same campaign identity both sides of the wire.
            assert_eq!(spec.build().name(), spec.build().name());
        }
        // Ids are unique.
        let ids: std::collections::HashSet<String> =
            LinkSpec::all().iter().map(LinkSpec::id).collect();
        assert_eq!(ids.len(), LinkSpec::all().len());
    }

    #[test]
    fn fault_ids_round_trip_bit_exactly() {
        for kind in FaultKind::all() {
            for severity in [0.0, 0.1 + 0.2, 1.0] {
                let spec = FaultSpec::Single { kind, severity };
                let back = FaultSpec::parse(&spec.id());
                assert_eq!(back, Some(spec), "{}", spec.id());
                assert_eq!(spec.build().name(), back.into_iter().next().map(|s| s.build().name()).unwrap_or_default());
            }
        }
        assert_eq!(FaultSpec::parse("clean"), Some(FaultSpec::Clean));
    }

    #[test]
    fn unknown_ids_are_rejected() {
        assert_eq!(LinkSpec::parse("ofdm:7"), None);
        assert_eq!(LinkSpec::parse("mimo:2x2"), None);
        assert_eq!(FaultSpec::parse("single:nope:3fe0000000000000"), None);
        assert_eq!(FaultSpec::parse("single:adc-clip:zz"), None);
        // Severity outside [0,1] must be rejected before build() would
        // panic.
        let bad = format!("single:adc-clip:{}", f64_to_hex(1.5));
        assert_eq!(FaultSpec::parse(&bad), None);
        let nan = format!("single:adc-clip:{}", f64_to_hex(f64::NAN));
        assert_eq!(FaultSpec::parse(&nan), None);
    }
}
