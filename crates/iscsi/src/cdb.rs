//! SCSI command descriptor blocks (the subset block storage needs).

use std::fmt;

/// SCSI command completion status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScsiStatus {
    /// Command completed successfully.
    Good,
    /// Check condition (sense data would describe the error).
    CheckCondition,
    /// Device busy.
    Busy,
}

impl ScsiStatus {
    /// Wire encoding (SAM-5 status codes).
    pub fn to_byte(self) -> u8 {
        match self {
            ScsiStatus::Good => 0x00,
            ScsiStatus::CheckCondition => 0x02,
            ScsiStatus::Busy => 0x08,
        }
    }

    /// Decodes a status byte (unknown codes map to `CheckCondition`).
    pub fn from_byte(b: u8) -> ScsiStatus {
        match b {
            0x00 => ScsiStatus::Good,
            0x08 => ScsiStatus::Busy,
            _ => ScsiStatus::CheckCondition,
        }
    }
}

impl fmt::Display for ScsiStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScsiStatus::Good => write!(f, "GOOD"),
            ScsiStatus::CheckCondition => write!(f, "CHECK CONDITION"),
            ScsiStatus::Busy => write!(f, "BUSY"),
        }
    }
}

/// A parsed SCSI CDB.
///
/// LBAs and transfer lengths are in 512-byte sectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cdb {
    /// TEST UNIT READY (6).
    TestUnitReady,
    /// INQUIRY (6): asks for device identification.
    Inquiry {
        /// Allocation length.
        alloc: u16,
    },
    /// READ CAPACITY (10): returns last LBA + block size.
    ReadCapacity10,
    /// READ (10) / READ (16).
    Read {
        /// First sector.
        lba: u64,
        /// Sector count.
        sectors: u32,
    },
    /// WRITE (10) / WRITE (16).
    Write {
        /// First sector.
        lba: u64,
        /// Sector count.
        sectors: u32,
    },
    /// SYNCHRONIZE CACHE (10): flush.
    SynchronizeCache,
}

impl Cdb {
    /// Serializes into a 16-byte CDB field. Reads/writes use the 16-byte
    /// variants so the full u64 LBA space is addressable.
    pub fn to_bytes(self) -> [u8; 16] {
        let mut b = [0u8; 16];
        match self {
            Cdb::TestUnitReady => {}
            Cdb::Inquiry { alloc } => {
                b[0] = 0x12;
                b[3..5].copy_from_slice(&alloc.to_be_bytes());
            }
            Cdb::ReadCapacity10 => b[0] = 0x25,
            Cdb::Read { lba, sectors } => {
                b[0] = 0x88; // READ(16)
                b[2..10].copy_from_slice(&lba.to_be_bytes());
                b[10..14].copy_from_slice(&sectors.to_be_bytes());
            }
            Cdb::Write { lba, sectors } => {
                b[0] = 0x8A; // WRITE(16)
                b[2..10].copy_from_slice(&lba.to_be_bytes());
                b[10..14].copy_from_slice(&sectors.to_be_bytes());
            }
            Cdb::SynchronizeCache => b[0] = 0x35,
        }
        b
    }

    /// Parses a CDB field; understands both the 10- and 16-byte read/write
    /// opcodes.
    ///
    /// # Errors
    ///
    /// Returns the unknown opcode byte.
    pub fn parse(b: &[u8; 16]) -> Result<Cdb, u8> {
        Ok(match b[0] {
            0x00 => Cdb::TestUnitReady,
            0x12 => Cdb::Inquiry {
                alloc: u16::from_be_bytes([b[3], b[4]]),
            },
            0x25 => Cdb::ReadCapacity10,
            0x28 => Cdb::Read {
                lba: u32::from_be_bytes([b[2], b[3], b[4], b[5]]) as u64,
                sectors: u16::from_be_bytes([b[7], b[8]]) as u32,
            },
            0x2A => Cdb::Write {
                lba: u32::from_be_bytes([b[2], b[3], b[4], b[5]]) as u64,
                sectors: u16::from_be_bytes([b[7], b[8]]) as u32,
            },
            0x88 => Cdb::Read {
                lba: u64::from_be_bytes(b[2..10].try_into().expect("8 bytes")),
                sectors: u32::from_be_bytes(b[10..14].try_into().expect("4 bytes")),
            },
            0x8A => Cdb::Write {
                lba: u64::from_be_bytes(b[2..10].try_into().expect("8 bytes")),
                sectors: u32::from_be_bytes(b[10..14].try_into().expect("4 bytes")),
            },
            0x35 => Cdb::SynchronizeCache,
            op => return Err(op),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_commands() {
        let cases = [
            Cdb::TestUnitReady,
            Cdb::Inquiry { alloc: 96 },
            Cdb::ReadCapacity10,
            Cdb::Read {
                lba: 1 << 40,
                sectors: 2048,
            },
            Cdb::Write { lba: 7, sectors: 8 },
            Cdb::SynchronizeCache,
        ];
        for c in cases {
            assert_eq!(Cdb::parse(&c.to_bytes()), Ok(c));
        }
    }

    #[test]
    fn parses_ten_byte_variants() {
        let mut b = [0u8; 16];
        b[0] = 0x28; // READ(10)
        b[2..6].copy_from_slice(&1234u32.to_be_bytes());
        b[7..9].copy_from_slice(&16u16.to_be_bytes());
        assert_eq!(
            Cdb::parse(&b),
            Ok(Cdb::Read {
                lba: 1234,
                sectors: 16
            })
        );
        b[0] = 0x2A; // WRITE(10)
        assert_eq!(
            Cdb::parse(&b),
            Ok(Cdb::Write {
                lba: 1234,
                sectors: 16
            })
        );
    }

    #[test]
    fn unknown_opcode_is_error() {
        let mut b = [0u8; 16];
        b[0] = 0xEE;
        assert_eq!(Cdb::parse(&b), Err(0xEE));
    }

    #[test]
    fn status_round_trip() {
        for s in [
            ScsiStatus::Good,
            ScsiStatus::CheckCondition,
            ScsiStatus::Busy,
        ] {
            assert_eq!(ScsiStatus::from_byte(s.to_byte()), s);
        }
        assert_eq!(ScsiStatus::from_byte(0x42), ScsiStatus::CheckCondition);
        assert_eq!(ScsiStatus::Good.to_string(), "GOOD");
    }
}
