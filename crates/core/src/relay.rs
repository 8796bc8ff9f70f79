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
//! runs a single loop over *batches* of chain *units* — stream-error
//! abort, backpressure pause, fault verdict, QoS admission, the service
//! chain, CPU accounting and the deferred release each exist once — and
//! `edge` holds the per-flow edge codec that is all the loop knows of
//! iSCSI or nvmeq: it reassembles received bytes into batches (an iSCSI
//! PDU is a batch of one unit, a doorbell/completion frame a batch of
//! *n*, a handshake frame a chain-bypass batch of none), rebuilds a batch
//! from what the chain emitted, and encodes whatever leaves the relay —
//! forwards, chain replies and the side actions of service timers and
//! replica completions — in the flow's own protocol.

mod active;
mod edge;
mod passive;

pub use active::{
    ActiveRelayConfig, ActiveRelayMb, MbControl, RelayCopyStats, RelayQosConfig, ReplicaTarget,
    RetryPolicy,
};
pub use passive::{PassiveTap, PassiveTapConfig, WireTracker};
