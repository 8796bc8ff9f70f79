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
//! * [`ShadowWorkload`] — the integrity workload of the end-to-end tests:
//!   seeded noise written and read back, one request or `depth` of them
//!   in flight, every read sector checked against a per-sector model of
//!   the writes it may see.
//! * [`malware`] — a scripted re-enactment of the
//!   `HEUR:Backdoor.Linux.Ganiw.a` installation (Table III).

#![warn(missing_docs)]

mod fio;
mod ftp;
pub mod malware;
mod oltp;
pub mod postmark;
mod replay;
mod shadow;

pub use fio::{FioJob, FioWorkload};
pub use ftp::{FtpDirection, FtpWorkload};
pub use oltp::{OltpConfig, OltpWorkload};
pub use replay::{AccessIter, Accesses, OpClass, OpGroup, TraceWorkload};
pub use shadow::ShadowWorkload;

/// Runs `workload` alone on a fresh 256 MiB volume for `secs` simulated
/// seconds (guest seed `seed`), checks that none of its I/O failed, and
/// hands `inspect` its client, itself and the volume.
#[cfg(test)]
fn solo<W: storm_cloud::Workload, R>(
    workload: W,
    seed: u64,
    secs: u64,
    inspect: impl FnOnce(&storm_cloud::VolumeClient, &W, &storm_cloud::VolumeHandle) -> R,
) -> R {
    let mut cloud = storm_cloud::Cloud::build(storm_cloud::CloudConfig::default());
    let vol = cloud.create_volume(256 << 20, 0);
    let app = cloud.attach_volume(0, "vm:solo", &vol, Box::new(workload), seed, false);
    cloud.net.run_until(storm_sim::SimTime::from_secs(secs));
    let client = cloud.client_mut(0, app);
    assert_eq!(client.stats.errors, 0);
    let w = client.workload_ref().and_then(|w| w.downcast_ref());
    inspect(client, w.expect("the workload"), &vol)
}
