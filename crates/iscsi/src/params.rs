//! Fixed session parameters and the login text that declares them.
//!
//! Every session runs on the values an Open-iSCSI ↔ LIO pairing
//! typically settles on: InitialR2T=No and ImmediateData=Yes, with the
//! three limits below. Both ends declare them at login and neither reads
//! the other's declaration.

use bytes::Bytes;
use storm_block::transport::encode_text;

/// Largest data segment either side sends in one PDU (LIO's default
/// MaxRecvDataSegmentLength).
pub const MAX_RECV_DATA_SEGMENT_LENGTH: usize = 8 * 1024;
/// Largest unsolicited write transfer: immediate data plus the first
/// burst of Data-Out the initiator sends unasked.
pub const FIRST_BURST_LENGTH: usize = 64 * 1024;
/// Largest transfer one R2T solicits.
pub const MAX_BURST_LENGTH: usize = 256 * 1024;

/// The session keys both ends declare.
const SESSION_KEYS: [(&str, &str); 5] = [
    ("FirstBurstLength", "65536"),
    ("ImmediateData", "Yes"),
    ("InitialR2T", "No"),
    ("MaxBurstLength", "262144"),
    ("MaxRecvDataSegmentLength", "8192"),
];

/// One end's login text: the session keys and `own`, in key order.
pub(crate) fn login_text(own: &[(&str, &str)]) -> Bytes {
    let mut keys: Vec<_> = SESSION_KEYS.iter().chain(own).copied().collect();
    keys.sort_unstable_by_key(|&(key, _)| key);
    encode_text(&keys).into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_keys_are_the_constants() {
        let limits = [
            ("FirstBurstLength", FIRST_BURST_LENGTH),
            ("MaxBurstLength", MAX_BURST_LENGTH),
            ("MaxRecvDataSegmentLength", MAX_RECV_DATA_SEGMENT_LENGTH),
        ];
        for (key, value) in limits {
            assert!(
                SESSION_KEYS.contains(&(key, value.to_string().as_str())),
                "{key}"
            );
        }
    }
}
