//! Workload generators for the StorM evaluation.
//!
//! Each generator implements [`storm_cloud::Workload`] and reproduces one
//! of the paper's load sources:
//!
//! * [`FioWorkload`] — the Fio micro-benchmark: configurable request size
//!   (4 KiB–256 KiB), read/write mix and parallelism (Figures 4–9).
//! * [`TraceWorkload`] — replays a recorded block-access trace as
//!   synchronous grouped operations; built by running a real filesystem
//!   over a [`storm_block::RecordingDevice`].
//! * [`postmark`] — a PostMark-like small-file mix (create/read/append/
//!   delete on a file pool), measured per component as in Figure 11.
//! * [`OltpWorkload`] — a Sysbench-style OLTP client: multi-threaded
//!   transactions of page reads, log writes and page writes against a
//!   database volume (Figure 13).
//! * [`FtpWorkload`] — bulk sequential transfer, the FTP up/download of
//!   the CPU-utilization experiment (Figure 10).
//! * [`VerifyWorkload`] — the integrity probe of the end-to-end tests:
//!   write a salted pattern, read it back, compare, repeat.
//! * [`malware`] — a scripted re-enactment of the
//!   `HEUR:Backdoor.Linux.Ganiw.a` installation (Table III).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fio;
mod ftp;
pub mod malware;
mod oltp;
pub mod postmark;
mod replay;
mod verify;

pub use fio::{FioJob, FioWorkload};
pub use ftp::{FtpDirection, FtpWorkload};
pub use oltp::{OltpConfig, OltpWorkload};
pub use replay::{OpClass, OpGroup, TraceWorkload};
pub use verify::VerifyWorkload;
