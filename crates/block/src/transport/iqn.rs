//! iSCSI qualified names, which every transport's connect carries.

use std::fmt;

/// An iSCSI qualified name (`iqn.YYYY-MM.reversed.domain:identifier`).
///
/// Connection attribution (paper §III-A) starts from "the virtual block
/// devices (also known as IQN numbers) that are attached to a tenant VM".
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Iqn(String);

impl Iqn {
    /// Parses and validates an IQN string.
    ///
    /// # Errors
    ///
    /// Returns the offending string if it does not start with `iqn.` or
    /// lacks the date/domain structure.
    pub fn parse(s: impl Into<String>) -> Result<Iqn, String> {
        let s = s.into();
        let Some(rest) = s.strip_prefix("iqn.") else {
            return Err(s);
        };
        // Expect YYYY-MM. prefix.
        let mut parts = rest.splitn(2, '.');
        let date = parts.next().unwrap_or_default();
        let domain = parts.next().unwrap_or_default();
        let date_ok = date.len() == 7
            && date.as_bytes()[4] == b'-'
            && date[..4].bytes().all(|b| b.is_ascii_digit())
            && date[5..].bytes().all(|b| b.is_ascii_digit());
        if !date_ok || domain.is_empty() {
            return Err(s);
        }
        Ok(Iqn(s))
    }

    /// Builds the conventional volume IQN used by the Cinder-like service:
    /// `iqn.2016-04.org.storm:volume-<id>`.
    pub fn for_volume(volume_id: u32) -> Iqn {
        Iqn(format!("iqn.2016-04.org.storm:volume-{volume_id}"))
    }

    /// Builds an initiator IQN for a compute host.
    pub fn for_host(host_name: &str) -> Iqn {
        Iqn(format!("iqn.2016-04.org.storm:host-{host_name}"))
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Iqn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl AsRef<str> for Iqn {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_valid_iqns() {
        let iqn = Iqn::parse("iqn.2016-04.org.storm:volume-7").unwrap();
        assert_eq!(iqn.as_str(), "iqn.2016-04.org.storm:volume-7");
        assert_eq!(iqn.to_string(), iqn.as_str());
        assert!(Iqn::parse("iqn.2001-04.com.example").is_ok());
    }

    #[test]
    fn rejects_malformed() {
        assert!(Iqn::parse("eui.02004567A425678D").is_err());
        assert!(Iqn::parse("iqn.20x6-04.org.storm").is_err());
        assert!(Iqn::parse("iqn.2016-04").is_err());
        assert!(Iqn::parse("").is_err());
    }

    #[test]
    fn constructors_produce_valid_names() {
        assert!(Iqn::parse(Iqn::for_volume(3).as_str()).is_ok());
        assert!(Iqn::parse(Iqn::for_host("compute1").as_str()).is_ok());
        assert_ne!(Iqn::for_volume(1), Iqn::for_volume(2));
    }
}
