//! The middle-box interception engines: passive and active relays.
//!
//! *Passive relay* (paper §III-B): a hook on the middle-box kernel's
//! FORWARD path copies every packet to user space — "one [system call] per
//! packet" — where services may transform data-segment bytes in place. The
//! packet continues along the original end-to-end TCP connection, so all
//! processing delay lands on the data *and* ack path.
//!
//! *Active relay*: the middle-box terminates TCP ("breaks the original
//! single TCP connection into two"), acknowledging data immediately on
//! receipt. A pseudo-server accepts the redirected flow from the ingress
//! gateway and a pseudo-client connects onward to the egress gateway
//! (binding the same source port so the Figure-3 chain rules keep
//! matching). Received PDUs are held in a bounded persistence buffer
//! (modelling the paper's non-volatile staging copy) — when it fills, the
//! pseudo-server's advertised window shrinks and the source stalls, which
//! is the active relay's flow-control story.
//!
//! The active relay is one datapath for every wire protocol. `active`
//! runs a single loop over *batches*, each one received message carrying
//! at most one block op — stream-error abort, backpressure pause, fault
//! verdict, QoS admission, the chain walk every service output takes, CPU
//! accounting and the deferred release each exist once. `edge` is all the
//! loop knows of iSCSI or nvmeq: it reassembles each flow's bytes into
//! batches, raises each batch's unit to an op and lowers whatever leaves
//! the relay in the flow's own protocol, with `wire` holding the two
//! protocols' forms of an op.

mod active;
mod edge;
mod passive;
mod wire;

pub use active::{
    ActiveRelayConfig, ActiveRelayMb, MbControl, RelayCopyStats, ReplicaTarget, CPU_LABEL,
};
pub(crate) use active::{BUFFER_CAP, LISTEN_PORT, PER_PDU_COST};
pub use passive::{PassiveTap, WireTracker};
pub(crate) use wire::{lift_pdu, lower_pdus, Wire};
