//! iSCSI qualified names, and the handshake text that carries them on
//! every transport's connect: the iSCSI login data segment and the nvmeq
//! Connect payload are both `key=value` entries, each NUL-terminated.

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

/// Encodes `key=value` pairs, in the order given, as handshake text.
pub fn encode_text(pairs: &[(&str, &str)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(pairs.iter().map(|(k, v)| k.len() + v.len() + 2).sum());
    for (k, v) in pairs {
        out.extend_from_slice(k.as_bytes());
        out.push(b'=');
        out.extend_from_slice(v.as_bytes());
        out.push(0);
    }
    out
}

/// The value of the first handshake-text entry whose key is exactly
/// `key`. Entries end at NUL bytes; one that is not UTF-8 (a frame header
/// ahead of the text, when the storage host scans a connection's first
/// bytes) or has no `=` is skipped.
pub fn scan_text(text: &[u8], key: &str) -> Option<String> {
    text.split(|&b| b == 0)
        .filter_map(|entry| std::str::from_utf8(entry).ok()?.split_once('='))
        .find_map(|(k, v)| (k == key).then(|| v.to_string()))
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

    #[test]
    fn text_round_trip() {
        let host = Iqn::for_host("c1");
        let text = encode_text(&[
            ("InitiatorName", host.as_str()),
            ("MaxBurstLength", "262144"),
        ]);
        assert_eq!(
            text,
            b"InitiatorName=iqn.2016-04.org.storm:host-c1\0MaxBurstLength=262144\0"
        );
        assert_eq!(
            scan_text(&text, "InitiatorName").as_deref(),
            Some(host.as_str())
        );
        assert_eq!(
            scan_text(&text, "MaxBurstLength").as_deref(),
            Some("262144")
        );
        assert_eq!(scan_text(&text, "Missing"), None);
    }

    #[test]
    fn decode_skips_garbage() {
        let text = b"ok=1\0novalue\0\0\xff\xfe=2\0k=v\0";
        assert_eq!(scan_text(text, "ok").as_deref(), Some("1"));
        assert_eq!(scan_text(text, "k").as_deref(), Some("v"));
        assert_eq!(scan_text(text, "novalue"), None);
        assert_eq!(scan_text(b"\xff\xfe", "X"), None);
        // The first of two entries with one key wins.
        assert_eq!(scan_text(b"k=a\0k=b\0", "k").as_deref(), Some("a"));
    }

    /// The storage host scans a connection's raw first bytes, header
    /// included, and binds the volume an exact `TargetName` key names.
    #[test]
    fn scan_target_name_finds_key() {
        let mut login = vec![0x43, 0x87, 0, 0, 0, 0, 0, 0x9c];
        login.extend_from_slice(b"InitiatorName=iqn.2016-04.org.storm:host-a\0");
        login.extend_from_slice(b"TargetName=iqn.2016-04.org.storm:volume-7\0");
        assert_eq!(
            scan_text(&login, "TargetName").as_deref(),
            Some("iqn.2016-04.org.storm:volume-7")
        );
        assert_eq!(scan_text(b"NoKeyHere\0", "TargetName"), None);
        // A key that merely ends in `TargetName` names nothing.
        let text = b"XTargetName=a\0TargetName=b\0";
        assert_eq!(scan_text(text, "TargetName").as_deref(), Some("b"));
        assert_eq!(scan_text(b"XTargetName=a\0", "TargetName"), None);
    }
}
