//! Every order of up to three of the catalogue's seven service kinds
//! (passthrough aside), on both transports: the catalogue refuses an
//! order by naming a stage and a kind ahead of it, and every order it
//! accepts passes its oracle.

use storm::block::transport::TransportKind;
use storm::scenario::{Case, Load, Svc};
use storm::services::catalog::{check_order, CatalogError};
use storm::services::{MonitorService, NumberedAccess};
use storm::workloads::TraceWorkload;

/// The monitor's analysis and the relay's alert messages after `case`.
fn monitored(mut case: Case) -> (Vec<NumberedAccess>, Vec<String>) {
    case.load = Load::Malware;
    let mut run = case.run();
    assert!(run.workload::<TraceWorkload>().is_finished() && run.client().stats.errors == 0);
    let alerts: Vec<_> = run.relay().alerts().iter().map(|a| a.1.clone()).collect();
    let at = case.chain.iter().position(|s| *s == Svc::Monitor).unwrap();
    (run.service::<MonitorService>(at).analysis(), alerts)
}

/// Behind a monitor the log and the alerts must be those of the monitor
/// alone, row for row; without one the order must pass [`Case::check`].
fn every_order(transport: TransportKind) {
    use Svc::*;
    let case = |chain| Case {
        transport,
        chain,
        ..Case::default()
    };
    // Breadth first: each order, then each one kind longer.
    let mut orders = vec![vec![]];
    for i in 0.. {
        let Some(order) = orders.get(i).filter(|o| o.len() < 3).cloned() else {
            break;
        };
        let kinds = [Monitor, Xts, Compress, Dedup, Cache, Replication, Snapshot];
        let longer = kinds.into_iter().filter(|k| !order.contains(k));
        orders.extend(longer.map(|k| [&order[..], &[k]].concat()));
    }
    assert_eq!(orders.len(), 1 + 259, "the empty order, then 259 chains");
    let alone = monitored(case(vec![Monitor]));
    let mut accepted = 0;
    for chain in orders.into_iter().skip(1) {
        let at = |kind| chain.iter().position(|s| s.kind() == kind);
        let refusal = check_order(chain.iter().map(|s| s.kind()));
        accepted += usize::from(refusal.is_ok());
        match refusal {
            Err(CatalogError::Hidden { stage, behind }) => {
                assert!(at(behind).is_some() && at(behind) < at(stage), "{chain:?}");
            }
            Err(other) => panic!("{chain:?}: {other}"),
            Ok(()) if chain.contains(&Monitor) => {
                assert!(monitored(case(chain.clone())) == alone, "{chain:?}");
            }
            Ok(()) => drop(case(chain).check()),
        }
    }
    assert_eq!(accepted, 98);
}

#[test]
fn every_order_over_iscsi() {
    every_order(TransportKind::Iscsi);
}

#[test]
fn every_order_over_nvmeq() {
    every_order(TransportKind::Nvmeq);
}
