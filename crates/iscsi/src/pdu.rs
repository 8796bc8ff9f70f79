//! iSCSI PDU wire format: 48-byte basic header segment + data segment.
//!
//! Layouts follow RFC 7143 §11 (no AHS, no header/data digests — the
//! paper's OpenStack deployment runs with digests off). Every field the
//! endpoint state machines need is represented; reserved fields encode as
//! zero.

use bytes::Bytes;

use storm_block::transport::ScsiStatus;

/// Errors from PDU decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PduError {
    /// The opcode byte is not one this implementation understands.
    UnknownOpcode(u8),
    /// Header too short (framing bug).
    Truncated,
    /// Stream reassembly accounting desynchronized (buffered-length
    /// bookkeeping disagrees with the chunk list). Connection-fatal, like
    /// the other variants, but reported instead of panicking: a relay
    /// must drop the connection, not abort the process.
    Desync,
}

impl std::fmt::Display for PduError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PduError::UnknownOpcode(op) => write!(f, "unknown iscsi opcode {op:#04x}"),
            PduError::Truncated => write!(f, "truncated pdu header"),
            PduError::Desync => write!(f, "pdu stream accounting desynchronized"),
        }
    }
}

impl std::error::Error for PduError {}

/// BHS length in bytes.
pub const BHS_LEN: usize = 48;

// Opcodes (initiator → target).
const OP_SCSI_CMD: u8 = 0x01;
const OP_LOGIN_REQ: u8 = 0x03;
const OP_DATA_OUT: u8 = 0x05;
// Opcodes (target → initiator).
const OP_SCSI_RESP: u8 = 0x21;
const OP_LOGIN_RESP: u8 = 0x23;
const OP_DATA_IN: u8 = 0x25;
const OP_R2T: u8 = 0x31;

/// Login Request PDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoginRequest {
    /// Transit to the next stage.
    pub transit: bool,
    /// Current stage (1 = operational negotiation).
    pub csg: u8,
    /// Next stage (3 = full feature phase).
    pub nsg: u8,
    /// Initiator session id.
    pub isid: [u8; 6],
    /// Target session identifying handle (0 on first login).
    pub tsih: u16,
    /// Initiator task tag.
    pub itt: u32,
    /// Connection id within the session.
    pub cid: u16,
    /// Command sequence number.
    pub cmd_sn: u32,
    /// Expected status sequence number.
    pub exp_stat_sn: u32,
    /// key=value negotiation text.
    pub data: Bytes,
}

/// Login Response PDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoginResponse {
    /// Transit accepted.
    pub transit: bool,
    /// Current stage.
    pub csg: u8,
    /// Next stage.
    pub nsg: u8,
    /// Echoed initiator session id.
    pub isid: [u8; 6],
    /// Assigned session handle.
    pub tsih: u16,
    /// Initiator task tag.
    pub itt: u32,
    /// Status sequence number.
    pub stat_sn: u32,
    /// Expected command sequence number.
    pub exp_cmd_sn: u32,
    /// Highest acceptable command sequence number.
    pub max_cmd_sn: u32,
    /// 0 = success.
    pub status_class: u8,
    /// Detail within the class.
    pub status_detail: u8,
    /// key=value negotiation text.
    pub data: Bytes,
}

/// SCSI Command PDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScsiCommand {
    /// Immediate delivery flag.
    pub immediate: bool,
    /// Final PDU of the command (always true here: no linked commands).
    pub final_pdu: bool,
    /// Expects data-in.
    pub read: bool,
    /// Expects data-out.
    pub write: bool,
    /// Logical unit number.
    pub lun: u64,
    /// Initiator task tag.
    pub itt: u32,
    /// Expected data transfer length in bytes.
    pub edtl: u32,
    /// Command sequence number.
    pub cmd_sn: u32,
    /// Expected status sequence number.
    pub exp_stat_sn: u32,
    /// The 16-byte CDB.
    pub cdb: [u8; 16],
    /// Immediate write data (when `ImmediateData=Yes`).
    pub data: Bytes,
}

/// SCSI Response PDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScsiResponse {
    /// Initiator task tag.
    pub itt: u32,
    /// iSCSI response code (0 = command completed at target).
    pub response: u8,
    /// SCSI status.
    pub status: ScsiStatus,
    /// Status sequence number.
    pub stat_sn: u32,
    /// Expected command sequence number.
    pub exp_cmd_sn: u32,
    /// Highest acceptable command sequence number.
    pub max_cmd_sn: u32,
    /// Residual byte count (over/underflow).
    pub residual: u32,
    /// Sense data, if any.
    pub data: Bytes,
}

/// SCSI Data-Out PDU (initiator → target write payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataOut {
    /// Last Data-Out of the sequence.
    pub final_pdu: bool,
    /// Logical unit number.
    pub lun: u64,
    /// Initiator task tag.
    pub itt: u32,
    /// Target transfer tag from the soliciting R2T (0xffffffff for
    /// unsolicited data).
    pub ttt: u32,
    /// Expected status sequence number.
    pub exp_stat_sn: u32,
    /// Data sequence number within the transfer.
    pub data_sn: u32,
    /// Byte offset of this payload within the command's buffer.
    pub buffer_offset: u32,
    /// Payload.
    pub data: Bytes,
}

/// SCSI Data-In PDU (target → initiator read payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataIn {
    /// Last Data-In of the command.
    pub final_pdu: bool,
    /// Phase-collapsed status present (S bit).
    pub status_present: bool,
    /// SCSI status (meaningful when `status_present`).
    pub status: ScsiStatus,
    /// Logical unit number.
    pub lun: u64,
    /// Initiator task tag.
    pub itt: u32,
    /// Target transfer tag (0xffffffff unless used for SNACK).
    pub ttt: u32,
    /// Status sequence number (when `status_present`).
    pub stat_sn: u32,
    /// Expected command sequence number.
    pub exp_cmd_sn: u32,
    /// Highest acceptable command sequence number.
    pub max_cmd_sn: u32,
    /// Data sequence number.
    pub data_sn: u32,
    /// Byte offset of this payload within the command's buffer.
    pub buffer_offset: u32,
    /// Residual count (with the S bit).
    pub residual: u32,
    /// Payload.
    pub data: Bytes,
}

/// Ready To Transfer PDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct R2t {
    /// Logical unit number.
    pub lun: u64,
    /// Initiator task tag.
    pub itt: u32,
    /// Target transfer tag the Data-Out PDUs must echo.
    pub ttt: u32,
    /// Status sequence number context.
    pub stat_sn: u32,
    /// Expected command sequence number.
    pub exp_cmd_sn: u32,
    /// Highest acceptable command sequence number.
    pub max_cmd_sn: u32,
    /// R2T sequence number.
    pub r2t_sn: u32,
    /// Requested buffer offset.
    pub buffer_offset: u32,
    /// Requested byte count.
    pub desired_length: u32,
}

/// Any iSCSI PDU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pdu {
    /// Login Request.
    LoginRequest(LoginRequest),
    /// Login Response.
    LoginResponse(LoginResponse),
    /// SCSI Command.
    ScsiCommand(ScsiCommand),
    /// SCSI Response.
    ScsiResponse(ScsiResponse),
    /// SCSI Data-Out.
    DataOut(DataOut),
    /// SCSI Data-In.
    DataIn(DataIn),
    /// Ready To Transfer.
    R2t(R2t),
}

fn put_u16(b: &mut [u8], off: usize, v: u16) {
    b[off..off + 2].copy_from_slice(&v.to_be_bytes());
}
fn put_u32(b: &mut [u8], off: usize, v: u32) {
    b[off..off + 4].copy_from_slice(&v.to_be_bytes());
}
fn put_u64(b: &mut [u8], off: usize, v: u64) {
    b[off..off + 8].copy_from_slice(&v.to_be_bytes());
}
fn get_u16(b: &[u8], off: usize) -> u16 {
    u16::from_be_bytes(b[off..off + 2].try_into().expect("2 bytes"))
}
fn get_u32(b: &[u8], off: usize) -> u32 {
    u32::from_be_bytes(b[off..off + 4].try_into().expect("4 bytes"))
}
fn get_u64(b: &[u8], off: usize) -> u64 {
    u64::from_be_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}

fn put_dsl(b: &mut [u8], len: usize) {
    let v = len as u32;
    b[5] = (v >> 16) as u8;
    b[6] = (v >> 8) as u8;
    b[7] = v as u8;
}

/// Extracts the data segment length from a BHS.
///
/// # Errors
///
/// [`PduError::Truncated`] when `bhs` is shorter than a full header —
/// a short or garbled reassembly buffer must surface as a protocol error,
/// never as a panic in the relay hot path.
pub fn data_segment_length(bhs: &[u8]) -> Result<usize, PduError> {
    if bhs.len() < BHS_LEN {
        return Err(PduError::Truncated);
    }
    Ok(((bhs[5] as usize) << 16) | ((bhs[6] as usize) << 8) | bhs[7] as usize)
}

/// Pads a length to the 4-byte PDU boundary.
pub fn padded(len: usize) -> usize {
    len.div_ceil(4) * 4
}

/// Zero padding source for [`WireChunks::pad`].
static ZERO_PAD: [u8; 4] = [0; 4];

/// Scatter-gather view of one encoded PDU: the stack-built header, the
/// data segment *shared* with the PDU (refcounted, never copied), and a
/// static zero-pad slice to the 4-byte boundary.
///
/// This is the zero-copy alternative to [`Pdu::encode`]: senders push the
/// three chunks into a `WireBuf` and the data segment travels by
/// reference all the way into TCP segments.
#[derive(Debug, Clone)]
pub struct WireChunks {
    /// The 48-byte basic header segment, data-segment length filled in.
    pub header: [u8; BHS_LEN],
    /// The data segment, sharing the PDU's storage.
    pub data: Bytes,
    /// Zero padding to the 4-byte boundary (0–3 bytes).
    pub pad: &'static [u8],
}

impl WireChunks {
    /// Total encoded length (header + data + pad).
    pub fn wire_len(&self) -> usize {
        BHS_LEN + self.data.len() + self.pad.len()
    }

    /// Flattens the view into contiguous wire bytes (copies — for tests
    /// and non-vectored senders).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.header);
        out.extend_from_slice(&self.data);
        out.extend_from_slice(self.pad);
        out
    }
}

impl Pdu {
    /// This PDU's data segment.
    pub fn data(&self) -> &Bytes {
        static EMPTY: Bytes = Bytes::new();
        match self {
            Pdu::LoginRequest(p) => &p.data,
            Pdu::LoginResponse(p) => &p.data,
            Pdu::ScsiCommand(p) => &p.data,
            Pdu::ScsiResponse(p) => &p.data,
            Pdu::DataOut(p) => &p.data,
            Pdu::DataIn(p) => &p.data,
            Pdu::R2t(_) => &EMPTY,
        }
    }

    /// The initiator task tag.
    ///
    /// Unique per outstanding command within a session, echoed by every
    /// PDU of the exchange. Combined with the initiator's TCP source port
    /// it forms the request token that correlates trace spans across the
    /// guest, middle-box, and target (`storm_sim::req_token`) — the ITT
    /// survives relaying because active relays forward commands verbatim.
    pub fn itt(&self) -> u32 {
        match self {
            Pdu::LoginRequest(p) => p.itt,
            Pdu::LoginResponse(p) => p.itt,
            Pdu::ScsiCommand(p) => p.itt,
            Pdu::ScsiResponse(p) => p.itt,
            Pdu::DataOut(p) => p.itt,
            Pdu::DataIn(p) => p.itt,
            Pdu::R2t(p) => p.itt,
        }
    }

    /// Total encoded length (header + padded data).
    pub fn wire_len(&self) -> usize {
        BHS_LEN + padded(self.data().len())
    }

    /// Serializes to wire bytes (thin wrapper over [`Pdu::encode_into`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = bytes::BytesMut::with_capacity(self.wire_len());
        self.encode_into(&mut out);
        out.to_vec()
    }

    /// Serializes into `out`, appending header, data segment and padding.
    pub fn encode_into(&self, out: &mut bytes::BytesMut) {
        let w = self.wire_chunks();
        out.extend_from_slice(&w.header);
        out.extend_from_slice(&w.data);
        out.extend_from_slice(w.pad);
    }

    /// The zero-copy scatter-gather encoding: header on the stack, data
    /// segment shared by reference, static pad.
    pub fn wire_chunks(&self) -> WireChunks {
        let data = self.data().clone();
        let pad = &ZERO_PAD[..padded(data.len()) - data.len()];
        WireChunks {
            header: self.encode_bhs(),
            data,
            pad,
        }
    }

    /// Builds the 48-byte basic header segment (data-segment length
    /// included) without touching the data segment.
    pub fn encode_bhs(&self) -> [u8; BHS_LEN] {
        let mut b = [0u8; BHS_LEN];
        match self {
            Pdu::LoginRequest(p) => {
                b[0] = OP_LOGIN_REQ | 0x40; // login is always immediate
                b[1] = (if p.transit { 0x80 } else { 0 }) | (p.csg << 2) | p.nsg;
                b[8..14].copy_from_slice(&p.isid);
                put_u16(&mut b, 14, p.tsih);
                put_u32(&mut b, 16, p.itt);
                put_u16(&mut b, 20, p.cid);
                put_u32(&mut b, 24, p.cmd_sn);
                put_u32(&mut b, 28, p.exp_stat_sn);
            }
            Pdu::LoginResponse(p) => {
                b[0] = OP_LOGIN_RESP;
                b[1] = (if p.transit { 0x80 } else { 0 }) | (p.csg << 2) | p.nsg;
                b[8..14].copy_from_slice(&p.isid);
                put_u16(&mut b, 14, p.tsih);
                put_u32(&mut b, 16, p.itt);
                put_u32(&mut b, 24, p.stat_sn);
                put_u32(&mut b, 28, p.exp_cmd_sn);
                put_u32(&mut b, 32, p.max_cmd_sn);
                b[36] = p.status_class;
                b[37] = p.status_detail;
            }
            Pdu::ScsiCommand(p) => {
                b[0] = OP_SCSI_CMD | if p.immediate { 0x40 } else { 0 };
                b[1] = (if p.final_pdu { 0x80 } else { 0 })
                    | (if p.read { 0x40 } else { 0 })
                    | (if p.write { 0x20 } else { 0 })
                    | 0x01; // SIMPLE task attribute
                put_u64(&mut b, 8, p.lun);
                put_u32(&mut b, 16, p.itt);
                put_u32(&mut b, 20, p.edtl);
                put_u32(&mut b, 24, p.cmd_sn);
                put_u32(&mut b, 28, p.exp_stat_sn);
                b[32..48].copy_from_slice(&p.cdb);
            }
            Pdu::ScsiResponse(p) => {
                b[0] = OP_SCSI_RESP;
                b[1] = 0x80;
                b[2] = p.response;
                b[3] = p.status.to_byte();
                put_u32(&mut b, 16, p.itt);
                put_u32(&mut b, 24, p.stat_sn);
                put_u32(&mut b, 28, p.exp_cmd_sn);
                put_u32(&mut b, 32, p.max_cmd_sn);
                put_u32(&mut b, 44, p.residual);
            }
            Pdu::DataOut(p) => {
                b[0] = OP_DATA_OUT;
                b[1] = if p.final_pdu { 0x80 } else { 0 };
                put_u64(&mut b, 8, p.lun);
                put_u32(&mut b, 16, p.itt);
                put_u32(&mut b, 20, p.ttt);
                put_u32(&mut b, 28, p.exp_stat_sn);
                put_u32(&mut b, 36, p.data_sn);
                put_u32(&mut b, 40, p.buffer_offset);
            }
            Pdu::DataIn(p) => {
                b[0] = OP_DATA_IN;
                b[1] = (if p.final_pdu { 0x80 } else { 0 })
                    | (if p.status_present { 0x01 } else { 0 });
                if p.status_present {
                    b[3] = p.status.to_byte();
                }
                put_u64(&mut b, 8, p.lun);
                put_u32(&mut b, 16, p.itt);
                put_u32(&mut b, 20, p.ttt);
                put_u32(&mut b, 24, p.stat_sn);
                put_u32(&mut b, 28, p.exp_cmd_sn);
                put_u32(&mut b, 32, p.max_cmd_sn);
                put_u32(&mut b, 36, p.data_sn);
                put_u32(&mut b, 40, p.buffer_offset);
                put_u32(&mut b, 44, p.residual);
            }
            Pdu::R2t(p) => {
                b[0] = OP_R2T;
                b[1] = 0x80;
                put_u64(&mut b, 8, p.lun);
                put_u32(&mut b, 16, p.itt);
                put_u32(&mut b, 20, p.ttt);
                put_u32(&mut b, 24, p.stat_sn);
                put_u32(&mut b, 28, p.exp_cmd_sn);
                put_u32(&mut b, 32, p.max_cmd_sn);
                put_u32(&mut b, 36, p.r2t_sn);
                put_u32(&mut b, 40, p.buffer_offset);
                put_u32(&mut b, 44, p.desired_length);
            }
        }
        put_dsl(&mut b, self.data().len());
        b
    }

    /// Decodes a PDU from its header and (unpadded) data segment.
    ///
    /// # Errors
    ///
    /// [`PduError::Truncated`] for short headers, [`PduError::UnknownOpcode`]
    /// for opcodes outside the supported subset.
    pub fn decode(bhs: &[u8], data: Bytes) -> Result<Pdu, PduError> {
        if bhs.len() < BHS_LEN {
            return Err(PduError::Truncated);
        }
        let opcode = bhs[0] & 0x3F;
        let immediate = bhs[0] & 0x40 != 0;
        let f = bhs[1] & 0x80 != 0;
        Ok(match opcode {
            OP_LOGIN_REQ => Pdu::LoginRequest(LoginRequest {
                transit: f,
                csg: (bhs[1] >> 2) & 0x03,
                nsg: bhs[1] & 0x03,
                isid: bhs[8..14].try_into().expect("6 bytes"),
                tsih: get_u16(bhs, 14),
                itt: get_u32(bhs, 16),
                cid: get_u16(bhs, 20),
                cmd_sn: get_u32(bhs, 24),
                exp_stat_sn: get_u32(bhs, 28),
                data,
            }),
            OP_LOGIN_RESP => Pdu::LoginResponse(LoginResponse {
                transit: f,
                csg: (bhs[1] >> 2) & 0x03,
                nsg: bhs[1] & 0x03,
                isid: bhs[8..14].try_into().expect("6 bytes"),
                tsih: get_u16(bhs, 14),
                itt: get_u32(bhs, 16),
                stat_sn: get_u32(bhs, 24),
                exp_cmd_sn: get_u32(bhs, 28),
                max_cmd_sn: get_u32(bhs, 32),
                status_class: bhs[36],
                status_detail: bhs[37],
                data,
            }),
            OP_SCSI_CMD => Pdu::ScsiCommand(ScsiCommand {
                immediate,
                final_pdu: f,
                read: bhs[1] & 0x40 != 0,
                write: bhs[1] & 0x20 != 0,
                lun: get_u64(bhs, 8),
                itt: get_u32(bhs, 16),
                edtl: get_u32(bhs, 20),
                cmd_sn: get_u32(bhs, 24),
                exp_stat_sn: get_u32(bhs, 28),
                cdb: bhs[32..48].try_into().expect("16 bytes"),
                data,
            }),
            OP_SCSI_RESP => Pdu::ScsiResponse(ScsiResponse {
                itt: get_u32(bhs, 16),
                response: bhs[2],
                status: ScsiStatus::from_byte(bhs[3]),
                stat_sn: get_u32(bhs, 24),
                exp_cmd_sn: get_u32(bhs, 28),
                max_cmd_sn: get_u32(bhs, 32),
                residual: get_u32(bhs, 44),
                data,
            }),
            OP_DATA_OUT => Pdu::DataOut(DataOut {
                final_pdu: f,
                lun: get_u64(bhs, 8),
                itt: get_u32(bhs, 16),
                ttt: get_u32(bhs, 20),
                exp_stat_sn: get_u32(bhs, 28),
                data_sn: get_u32(bhs, 36),
                buffer_offset: get_u32(bhs, 40),
                data,
            }),
            OP_DATA_IN => Pdu::DataIn(DataIn {
                final_pdu: f,
                status_present: bhs[1] & 0x01 != 0,
                status: ScsiStatus::from_byte(bhs[3]),
                lun: get_u64(bhs, 8),
                itt: get_u32(bhs, 16),
                ttt: get_u32(bhs, 20),
                stat_sn: get_u32(bhs, 24),
                exp_cmd_sn: get_u32(bhs, 28),
                max_cmd_sn: get_u32(bhs, 32),
                data_sn: get_u32(bhs, 36),
                buffer_offset: get_u32(bhs, 40),
                residual: get_u32(bhs, 44),
                data,
            }),
            OP_R2T => Pdu::R2t(R2t {
                lun: get_u64(bhs, 8),
                itt: get_u32(bhs, 16),
                ttt: get_u32(bhs, 20),
                stat_sn: get_u32(bhs, 24),
                exp_cmd_sn: get_u32(bhs, 28),
                max_cmd_sn: get_u32(bhs, 32),
                r2t_sn: get_u32(bhs, 36),
                buffer_offset: get_u32(bhs, 40),
                desired_length: get_u32(bhs, 44),
            }),
            op => return Err(PduError::UnknownOpcode(op)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(pdu: Pdu) {
        let wire = pdu.encode();
        assert_eq!(wire.len(), pdu.wire_len());
        let dsl = data_segment_length(&wire).unwrap();
        assert_eq!(dsl, pdu.data().len());
        let data = Bytes::copy_from_slice(&wire[BHS_LEN..BHS_LEN + dsl]);
        let decoded = Pdu::decode(&wire[..BHS_LEN], data).unwrap();
        assert_eq!(decoded, pdu);
        // The scatter-gather view flattens to the same bytes, and the data
        // chunk shares storage with the PDU (no copy during encode).
        let w = pdu.wire_chunks();
        assert_eq!(w.to_vec(), wire);
        assert_eq!(w.wire_len(), wire.len());
        assert!(w.data.same_storage(pdu.data()));
    }

    #[test]
    fn round_trip_every_variant() {
        round_trip(Pdu::LoginRequest(LoginRequest {
            transit: true,
            csg: 1,
            nsg: 3,
            isid: [0x80, 0, 0, 0x02, 0xAB, 0xCD],
            tsih: 0,
            itt: 1,
            cid: 0,
            cmd_sn: 1,
            exp_stat_sn: 0,
            data: Bytes::from_static(b"InitiatorName=iqn.2016-04.org.storm:host-c1\0"),
        }));
        round_trip(Pdu::LoginResponse(LoginResponse {
            transit: true,
            csg: 1,
            nsg: 3,
            isid: [0x80, 0, 0, 0x02, 0xAB, 0xCD],
            tsih: 0x11,
            itt: 1,
            stat_sn: 1,
            exp_cmd_sn: 2,
            max_cmd_sn: 65,
            status_class: 0,
            status_detail: 0,
            data: Bytes::from_static(b"TargetPortalGroupTag=1\0"),
        }));
        round_trip(Pdu::ScsiCommand(ScsiCommand {
            immediate: false,
            final_pdu: true,
            read: true,
            write: false,
            lun: 0,
            itt: 7,
            edtl: 4096,
            cmd_sn: 3,
            exp_stat_sn: 2,
            cdb: crate::cdb::Cdb::Read {
                lba: 100,
                sectors: 8,
            }
            .to_bytes(),
            data: Bytes::new(),
        }));
        round_trip(Pdu::ScsiResponse(ScsiResponse {
            itt: 7,
            response: 0,
            status: ScsiStatus::Good,
            stat_sn: 3,
            exp_cmd_sn: 4,
            max_cmd_sn: 67,
            residual: 0,
            data: Bytes::new(),
        }));
        round_trip(Pdu::DataOut(DataOut {
            final_pdu: true,
            lun: 0,
            itt: 9,
            ttt: 0x1000,
            exp_stat_sn: 5,
            data_sn: 2,
            buffer_offset: 128 * 1024,
            data: Bytes::from(vec![0x5A; 8192]),
        }));
        round_trip(Pdu::DataIn(DataIn {
            final_pdu: true,
            status_present: true,
            status: ScsiStatus::Good,
            lun: 0,
            itt: 9,
            ttt: 0xFFFF_FFFF,
            stat_sn: 6,
            exp_cmd_sn: 7,
            max_cmd_sn: 70,
            data_sn: 3,
            buffer_offset: 0,
            residual: 0,
            data: Bytes::from(vec![0xA5; 4096]),
        }));
        round_trip(Pdu::R2t(R2t {
            lun: 0,
            itt: 9,
            ttt: 0x1001,
            stat_sn: 6,
            exp_cmd_sn: 7,
            max_cmd_sn: 70,
            r2t_sn: 0,
            buffer_offset: 65536,
            desired_length: 196608,
        }));
    }

    #[test]
    fn data_is_padded_to_four_bytes() {
        let pdu = Pdu::DataOut(DataOut {
            final_pdu: true,
            lun: 0,
            itt: 1,
            ttt: 0xFFFF_FFFF,
            exp_stat_sn: 1,
            data_sn: 0,
            buffer_offset: 0,
            data: Bytes::from_static(b"abcde"), // 5 bytes -> pad to 8
        });
        let wire = pdu.encode();
        assert_eq!(wire.len(), BHS_LEN + 8);
        assert_eq!(&wire[BHS_LEN..BHS_LEN + 5], b"abcde");
        assert_eq!(&wire[BHS_LEN + 5..], &[0, 0, 0]);
        assert_eq!(padded(0), 0);
        assert_eq!(padded(4), 4);
        assert_eq!(padded(5), 8);
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut bhs = [0u8; BHS_LEN];
        // NOP-Out/In, Text Request/Response and Logout Request/Response are
        // refused like any opcode outside the subset the cloud drives.
        for op in [0x3B, 0x00, 0x04, 0x06, 0x20, 0x24, 0x26] {
            bhs[0] = op;
            assert_eq!(
                Pdu::decode(&bhs, Bytes::new()),
                Err(PduError::UnknownOpcode(op))
            );
        }
        bhs[0] = 0x3B;
        assert_eq!(
            Pdu::decode(&bhs[..10], Bytes::new()),
            Err(PduError::Truncated)
        );
        // Short header slices surface as Truncated, never a panic.
        for cut in [0, 1, 7, 8, 47] {
            assert_eq!(data_segment_length(&bhs[..cut]), Err(PduError::Truncated));
        }
        assert_eq!(data_segment_length(&bhs), Ok(0));
    }

    #[test]
    fn immediate_flag_survives() {
        let pdu = Pdu::ScsiCommand(ScsiCommand {
            immediate: true,
            final_pdu: true,
            read: false,
            write: true,
            lun: 2,
            itt: 3,
            edtl: 512,
            cmd_sn: 1,
            exp_stat_sn: 1,
            cdb: crate::cdb::Cdb::Write { lba: 0, sectors: 1 }.to_bytes(),
            data: Bytes::from(vec![0u8; 512]),
        });
        let wire = pdu.encode();
        assert_eq!(wire[0] & 0x40, 0x40);
        round_trip(pdu);
    }
}
