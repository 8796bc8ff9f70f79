//! A simplified TCP: handshake, cumulative acks, finite windows.
//!
//! The model keeps exactly the mechanisms StorM's evaluation depends on:
//!
//! * **Per-segment acknowledgements** and a **finite receive window** — the
//!   active-relay's benefit is shortening the ack path (split TCP), which
//!   only exists if senders stall on unacked data.
//! * **Receiver pause/resume** — the active-relay's bounded persistence
//!   buffer exerts backpressure by shrinking the advertised window.
//! * **Graceful close and reset** — replica failure in the replication
//!   service is "closing the iSCSI connection" (the paper's fault
//!   injection).
//!
//! Loss and retransmission are not modelled: the simulated fabric delivers
//! reliably and in order, matching a healthy datacenter storage network. A
//! link taken down drops every frame sent over it, so the flows crossing it
//! stall rather than abort; nothing resends what was dropped.
//!
//! The per-segment entry points ([`TcpStack::input_into`],
//! [`TcpStack::send_bytes`], [`TcpStack::send_chunks_into`],
//! [`TcpStack::resume`]) *append* the segments to transmit and the app
//! upcalls to caller-owned buffers, which the engine reuses across events;
//! they allocate nothing themselves beyond each data segment's
//! scatter-gather list.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use bytes::Bytes;
use storm_sim::IdMap;

use crate::addr::{FourTuple, SockAddr};
use crate::frame::{Payload, TcpFlags, TcpSegment};
use crate::host::AppId;

/// Per-host socket identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SockId(pub u32);

impl fmt::Display for SockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sock{}", self.0)
    }
}

/// Why a connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseKind {
    /// FIN exchange completed.
    Graceful,
    /// RST received or connection aborted.
    Reset,
}

/// Tuning knobs for the stack.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Maximum segment payload bytes (1448 ≈ 1500 MTU minus headers).
    pub mss: usize,
    /// Receive window capacity in bytes.
    pub rcv_wnd: u32,
    /// Send buffer capacity in bytes.
    pub snd_buf: usize,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1448,
            rcv_wnd: 256 * 1024,
            snd_buf: 1024 * 1024,
        }
    }
}

/// A segment to put on the wire, with its (already local-to-remote) tuple.
#[derive(Debug, Clone)]
pub struct OutSeg {
    /// src = this host's endpoint, dst = the remote endpoint.
    pub tuple: FourTuple,
    /// The segment.
    pub seg: TcpSegment,
}

/// An upcall for the owning application, to be dispatched by the engine.
#[derive(Debug, Clone)]
pub enum TcpEvent {
    /// Active open completed.
    Connected(SockId),
    /// Active open failed (RST during handshake).
    ConnectFailed(SockId),
    /// Passive open completed on the listener at `port`.
    Accepted {
        /// Listening port that accepted.
        port: u16,
        /// The new connection.
        sock: SockId,
    },
    /// In-order payload arrived.
    Data {
        /// Receiving socket.
        sock: SockId,
        /// The bytes.
        data: Bytes,
    },
    /// Send-buffer space opened up after a previous short write.
    Writable(SockId),
    /// The connection ended.
    Closed {
        /// The socket.
        sock: SockId,
        /// Graceful or reset.
        kind: CloseKind,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    SynSent,
    SynRcvd,
    Established,
    FinSent,
}

#[derive(Debug)]
struct Tcb {
    local: SockAddr,
    remote: SockAddr,
    app: AppId,
    state: State,
    accepted_on: Option<u16>,
    // Send side.
    snd_una: u64,
    snd_nxt: u64,
    snd_buf: VecDeque<Bytes>,
    snd_buf_len: usize,
    peer_wnd: u32,
    wants_writable: bool,
    // Receive side.
    rcv_nxt: u64,
    ooo: BTreeMap<u64, Payload>,
    paused: bool,
    rcv_buf: VecDeque<Bytes>,
    rcv_buf_len: usize,
}

impl Tcb {
    fn key(&self) -> FourTuple {
        FourTuple::new(self.local, self.remote)
    }
    fn inflight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }
}

/// Counters exposed for diagnostics and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpCounters {
    /// Segments fed to [`TcpStack::input`].
    pub segs_in: u64,
    /// Segments produced.
    pub segs_out: u64,
    /// Payload bytes delivered to applications.
    pub bytes_delivered: u64,
    /// RSTs sent in response to segments with no matching connection.
    pub rst_sent: u64,
}

/// The per-host TCP stack.
#[derive(Debug)]
pub struct TcpStack {
    config: TcpConfig,
    conns: IdMap<u32, Tcb>,
    by_tuple: IdMap<FourTuple, u32>,
    listeners: IdMap<u16, AppId>,
    next_sock: u32,
    next_port: u16,
    counters: TcpCounters,
}

impl TcpStack {
    /// Creates a stack with the given configuration.
    pub fn new(config: TcpConfig) -> Self {
        TcpStack {
            config,
            conns: IdMap::default(),
            by_tuple: IdMap::default(),
            listeners: IdMap::default(),
            next_sock: 1,
            next_port: 40_000,
            counters: TcpCounters::default(),
        }
    }

    /// Stack-wide counters.
    pub fn counters(&self) -> TcpCounters {
        self.counters
    }

    /// The stack's configuration.
    pub fn config(&self) -> TcpConfig {
        self.config
    }

    /// Changes the maximum segment size (e.g. 16 KiB to model TSO/GSO:
    /// segmentation offload hands the vif large frames, so per-packet copy
    /// costs amortize — the active relay's "TCP handler packs several
    /// packets together for each copy").
    pub fn set_mss(&mut self, mss: usize) {
        assert!(mss >= 512, "mss too small");
        self.config.mss = mss;
    }

    /// Starts listening on `port` for `app`.
    ///
    /// # Panics
    ///
    /// Panics if the port is already bound (a configuration error in
    /// experiment setup).
    pub fn listen(&mut self, app: AppId, port: u16) {
        let prev = self.listeners.insert(port, app);
        assert!(prev.is_none(), "port {port} already bound");
    }

    /// Opens a connection from `local_ip` to `remote`, returning the new
    /// socket and the SYN to transmit.
    pub fn connect(
        &mut self,
        app: AppId,
        local_ip: std::net::Ipv4Addr,
        remote: SockAddr,
    ) -> (SockId, OutSeg) {
        self.connect_from(app, local_ip, remote, None)
    }

    /// Like [`TcpStack::connect`] but with an explicit source port
    /// (`None` = ephemeral). StorM's active-relay pseudo-client binds the
    /// original flow's source port so the SDN chain rules, which match on
    /// ports (Figure 3), keep applying across the split connection.
    ///
    /// # Panics
    ///
    /// Panics if the requested source port is already used for the same
    /// remote endpoint.
    pub fn connect_from(
        &mut self,
        app: AppId,
        local_ip: std::net::Ipv4Addr,
        remote: SockAddr,
        src_port: Option<u16>,
    ) -> (SockId, OutSeg) {
        let port = match src_port {
            Some(p) => {
                let key = FourTuple::new(SockAddr::new(local_ip, p), remote);
                assert!(
                    !self.by_tuple.contains_key(&key),
                    "source port {p} already in use towards {remote}"
                );
                p
            }
            None => {
                // Allocate an ephemeral source port.
                let mut port = self.next_port;
                loop {
                    let key = FourTuple::new(SockAddr::new(local_ip, port), remote);
                    if !self.by_tuple.contains_key(&key) {
                        break;
                    }
                    port = port.wrapping_add(1).max(40_000);
                }
                self.next_port = port.wrapping_add(1).max(40_000);
                port
            }
        };
        let local = SockAddr::new(local_ip, port);
        let sid = self.next_sock;
        self.next_sock += 1;
        let tcb = Tcb {
            local,
            remote,
            app,
            state: State::SynSent,
            accepted_on: None,
            snd_una: 0,
            snd_nxt: 0,
            snd_buf: VecDeque::new(),
            snd_buf_len: 0,
            peer_wnd: self.config.rcv_wnd,
            wants_writable: false,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            paused: false,
            rcv_buf: VecDeque::new(),
            rcv_buf_len: 0,
        };
        let key = tcb.key();
        self.by_tuple.insert(key, sid);
        self.conns.insert(sid, tcb);
        self.counters.segs_out += 1;
        let syn = OutSeg {
            tuple: key,
            seg: TcpSegment {
                src_port: local.port,
                dst_port: remote.port,
                seq: 0,
                ack: 0,
                flags: TcpFlags::SYN,
                wnd: self.config.rcv_wnd,
                payload: Payload::empty(),
            },
        };
        (SockId(sid), syn)
    }

    /// The `(local, remote)` tuple of a socket, if it exists.
    ///
    /// Connection attribution reads the initiator's source port here — the
    /// paper's "modified iSCSI Login Session code to expose TCP connection
    /// information".
    pub fn tuple_of(&self, sock: SockId) -> Option<FourTuple> {
        self.conns.get(&sock.0).map(|t| t.key())
    }

    /// Queues up to `data.len()` bytes for sending, appending the segments
    /// to transmit to `out`; returns how many bytes were accepted. Copying
    /// wrapper over [`TcpStack::send_bytes`].
    #[expect(
        clippy::disallowed_methods,
        reason = "documented copying wrapper; the datapath uses send_bytes/send_chunks."
    )]
    pub fn send(&mut self, sock: SockId, data: &[u8], out: &mut Vec<OutSeg>) -> usize {
        self.send_bytes(sock, Bytes::copy_from_slice(data), out)
    }

    /// Queues a refcounted chunk for sending without copying, appending
    /// the segments to transmit to `out`; returns how many bytes were
    /// accepted.
    ///
    /// The accepted prefix is stored as a view of `data`'s backing
    /// storage; segments are cut at chunk boundaries so their payloads
    /// stay views too. This is the zero-copy half of the split-TCP relay:
    /// forwarded PDUs travel from the receive side's reassembler to the
    /// peer's receive buffer as slices of one allocation.
    pub fn send_bytes(&mut self, sock: SockId, data: Bytes, out: &mut Vec<OutSeg>) -> usize {
        let Some(tcb) = self.conns.get_mut(&sock.0) else {
            return 0;
        };
        if !matches!(
            tcb.state,
            State::Established | State::SynSent | State::SynRcvd
        ) {
            return 0;
        }
        let space = self.config.snd_buf.saturating_sub(tcb.snd_buf_len);
        let n = space.min(data.len());
        if n > 0 {
            let chunk = data.slice(..n);
            tcb.snd_buf_len += n;
            push_joined(&mut tcb.snd_buf, chunk);
        }
        if n < data.len() {
            tcb.wants_writable = true;
        }
        // Before the handshake completes, data waits for it.
        if tcb.state == State::Established {
            Self::pump(&mut self.counters, self.config, tcb, out);
        }
        n
    }

    /// [`send_chunks_into`](Self::send_chunks_into) returning the
    /// segments in a fresh `Vec`.
    pub fn send_chunks(
        &mut self,
        sock: SockId,
        chunks: &mut VecDeque<Bytes>,
    ) -> (usize, Vec<OutSeg>) {
        let mut out = Vec::new();
        (self.send_chunks_into(sock, chunks, &mut out), out)
    }

    /// Drains as many whole or partial chunks from `chunks` into the send
    /// buffer as there is space, then pumps **once**, appending the
    /// segments to transmit to `out`; returns how many bytes were accepted.
    ///
    /// Batching matters for packetization: queueing a PDU's header chunk
    /// and data chunk before cutting segments lets one full-MSS frame
    /// carry both (scatter-gather), instead of flushing the 48-byte
    /// header as its own packet.
    pub fn send_chunks_into(
        &mut self,
        sock: SockId,
        chunks: &mut VecDeque<Bytes>,
        out: &mut Vec<OutSeg>,
    ) -> usize {
        let Some(tcb) = self.conns.get_mut(&sock.0) else {
            return 0;
        };
        if !matches!(
            tcb.state,
            State::Established | State::SynSent | State::SynRcvd
        ) {
            return 0;
        }
        let mut accepted = 0;
        loop {
            let space = self.config.snd_buf.saturating_sub(tcb.snd_buf_len);
            if space == 0 {
                break;
            }
            let Some(front) = chunks.front_mut() else {
                break;
            };
            let chunk = if front.len() <= space {
                match chunks.pop_front() {
                    Some(c) => c,
                    None => break, // front_mut saw it; defensive anyway
                }
            } else {
                let c = front.slice(..space);
                front.advance(space);
                c
            };
            let n = chunk.len();
            tcb.snd_buf_len += n;
            accepted += n;
            push_joined(&mut tcb.snd_buf, chunk);
        }
        if !chunks.is_empty() {
            tcb.wants_writable = true;
        }
        // Before the handshake completes, data waits for it.
        if tcb.state == State::Established {
            Self::pump(&mut self.counters, self.config, tcb, out);
        }
        accepted
    }

    /// Free space in the send buffer.
    pub fn send_capacity(&self, sock: SockId) -> usize {
        self.conns
            .get(&sock.0)
            .map(|t| self.config.snd_buf.saturating_sub(t.snd_buf_len))
            .unwrap_or(0)
    }

    /// Bytes accepted but not yet acknowledged by the peer.
    pub fn unacked(&self, sock: SockId) -> usize {
        self.conns.get(&sock.0).map(|t| t.snd_buf_len).unwrap_or(0)
    }

    /// Stops delivering received data to the app; incoming bytes accumulate
    /// (up to the receive window) and the advertised window shrinks,
    /// back-pressuring the sender.
    pub fn pause(&mut self, sock: SockId) {
        if let Some(tcb) = self.conns.get_mut(&sock.0) {
            tcb.paused = true;
        }
    }

    /// Resumes delivery: appends the buffered data events to `events` and
    /// a window update that un-stalls the sender to `out`.
    pub fn resume(
        &mut self,
        sock: SockId,
        out: &mut Vec<OutSeg>,
        events: &mut Vec<(AppId, TcpEvent)>,
    ) {
        let Some(tcb) = self.conns.get_mut(&sock.0) else {
            return;
        };
        tcb.paused = false;
        while let Some(chunk) = tcb.rcv_buf.pop_front() {
            tcb.rcv_buf_len -= chunk.len();
            self.counters.bytes_delivered += chunk.len() as u64;
            events.push((tcb.app, TcpEvent::Data { sock, data: chunk }));
        }
        out.push(Self::bare_ack(&mut self.counters, tcb, self.config.rcv_wnd));
    }

    /// Initiates a graceful close; returns the FIN to transmit.
    pub fn close(&mut self, sock: SockId) -> Vec<OutSeg> {
        let Some(tcb) = self.conns.get_mut(&sock.0) else {
            return Vec::new();
        };
        if tcb.state == State::FinSent {
            return Vec::new();
        }
        tcb.state = State::FinSent;
        self.counters.segs_out += 1;
        let fin = OutSeg {
            tuple: tcb.key(),
            seg: TcpSegment {
                src_port: tcb.local.port,
                dst_port: tcb.remote.port,
                seq: tcb.snd_nxt,
                ack: tcb.rcv_nxt,
                flags: TcpFlags::FIN_ACK,
                wnd: Self::adv_wnd(tcb, self.config.rcv_wnd),
                payload: Payload::empty(),
            },
        };
        vec![fin]
    }

    /// Abortively closes; returns the RST to transmit. The local app gets
    /// no callback (it asked for the abort).
    pub fn abort(&mut self, sock: SockId) -> Vec<OutSeg> {
        let Some(tcb) = self.conns.remove(&sock.0) else {
            return Vec::new();
        };
        self.by_tuple.remove(&tcb.key());
        self.counters.segs_out += 1;
        self.counters.rst_sent += 1;
        vec![OutSeg {
            tuple: tcb.key(),
            seg: TcpSegment {
                src_port: tcb.local.port,
                dst_port: tcb.remote.port,
                seq: tcb.snd_nxt,
                ack: tcb.rcv_nxt,
                flags: TcpFlags::RST,
                wnd: 0,
                payload: Payload::empty(),
            },
        }]
    }

    fn adv_wnd(tcb: &Tcb, cap: u32) -> u32 {
        cap.saturating_sub(tcb.rcv_buf_len as u32)
    }

    fn bare_ack(counters: &mut TcpCounters, tcb: &Tcb, cap: u32) -> OutSeg {
        counters.segs_out += 1;
        OutSeg {
            tuple: tcb.key(),
            seg: TcpSegment {
                src_port: tcb.local.port,
                dst_port: tcb.remote.port,
                seq: tcb.snd_nxt,
                ack: tcb.rcv_nxt,
                flags: TcpFlags::ACK,
                wnd: Self::adv_wnd(tcb, cap),
                payload: Payload::empty(),
            },
        }
    }

    /// Returns the segment payload starting at send-buffer offset
    /// `start`, exactly `max` bytes, gathered across chunk boundaries:
    /// each gathered piece is a refcounted view of the chunk the app
    /// queued, so data bytes are not copied here and full-MSS frames are
    /// emitted regardless of how the app chunked its writes.
    fn unsent_payload(tcb: &Tcb, start: usize, max: usize) -> Payload {
        let mut payload = Payload::empty();
        let mut off = 0;
        let mut need = max;
        for c in &tcb.snd_buf {
            if need == 0 {
                break;
            }
            if start + (max - need) < off + c.len() {
                let lo = start + (max - need) - off;
                let hi = (lo + need).min(c.len());
                payload.push(c.slice(lo..hi));
                need -= hi - lo;
            }
            off += c.len();
        }
        debug_assert_eq!(payload.len(), max, "send buffer holds the range");
        payload
    }

    /// Appends to `out` as many data segments as the peer window allows.
    /// Payloads are scatter-gather lists of refcounted send-buffer views,
    /// so data bytes are not copied here.
    fn pump(counters: &mut TcpCounters, config: TcpConfig, tcb: &mut Tcb, out: &mut Vec<OutSeg>) {
        let mss = config.mss;
        loop {
            let inflight = tcb.inflight();
            let usable = (tcb.peer_wnd as u64).saturating_sub(inflight) as usize;
            let unsent_off = inflight as usize;
            let avail = tcb.snd_buf_len.saturating_sub(unsent_off);
            let n = usable.min(avail).min(mss);
            if n == 0 {
                break;
            }
            let payload = Self::unsent_payload(tcb, unsent_off, n);
            counters.segs_out += 1;
            out.push(OutSeg {
                tuple: tcb.key(),
                seg: TcpSegment {
                    src_port: tcb.local.port,
                    dst_port: tcb.remote.port,
                    seq: tcb.snd_nxt,
                    ack: tcb.rcv_nxt,
                    flags: TcpFlags::ACK,
                    wnd: Self::adv_wnd(tcb, config.rcv_wnd),
                    payload,
                },
            });
            tcb.snd_nxt += n as u64;
        }
    }

    /// [`input_into`](Self::input_into) returning the segments and events
    /// in fresh `Vec`s.
    pub fn input(
        &mut self,
        tuple: FourTuple,
        seg: TcpSegment,
    ) -> (Vec<OutSeg>, Vec<(AppId, TcpEvent)>) {
        let (mut out, mut events) = (Vec::new(), Vec::new());
        self.input_into(tuple, seg, &mut out, &mut events);
        (out, events)
    }

    /// Processes an incoming segment. `tuple` is the segment's on-wire
    /// direction (src = remote, dst = local). Appends the segments to
    /// transmit to `out` and the app events to dispatch to `events`.
    pub fn input_into(
        &mut self,
        tuple: FourTuple,
        mut seg: TcpSegment,
        out: &mut Vec<OutSeg>,
        events: &mut Vec<(AppId, TcpEvent)>,
    ) {
        self.counters.segs_in += 1;
        let key = tuple.reversed();

        let sid = match self.by_tuple.get(&key) {
            Some(&sid) => sid,
            None => {
                if seg.flags.syn && !seg.flags.ack {
                    if let Some(&app) = self.listeners.get(&tuple.dst.port) {
                        let sid = self.next_sock;
                        self.next_sock += 1;
                        let tcb = Tcb {
                            local: key.src,
                            remote: key.dst,
                            app,
                            state: State::SynRcvd,
                            accepted_on: Some(tuple.dst.port),
                            snd_una: 0,
                            snd_nxt: 1, // our SYN occupies seq 0
                            snd_buf: VecDeque::new(),
                            snd_buf_len: 0,
                            peer_wnd: seg.wnd,
                            wants_writable: false,
                            rcv_nxt: 1, // their SYN occupied seq 0
                            ooo: BTreeMap::new(),
                            paused: false,
                            rcv_buf: VecDeque::new(),
                            rcv_buf_len: 0,
                        };
                        self.by_tuple.insert(key, sid);
                        self.conns.insert(sid, tcb);
                        self.counters.segs_out += 1;
                        out.push(OutSeg {
                            tuple: key,
                            seg: TcpSegment {
                                src_port: key.src.port,
                                dst_port: key.dst.port,
                                seq: 0,
                                ack: 1,
                                flags: TcpFlags::SYN_ACK,
                                wnd: self.config.rcv_wnd,
                                payload: Payload::empty(),
                            },
                        });
                    } else {
                        // Connection refused.
                        self.counters.segs_out += 1;
                        self.counters.rst_sent += 1;
                        out.push(OutSeg {
                            tuple: key,
                            seg: TcpSegment {
                                src_port: key.src.port,
                                dst_port: key.dst.port,
                                seq: 0,
                                ack: seg.seq + 1,
                                flags: TcpFlags::RST,
                                wnd: 0,
                                payload: Payload::empty(),
                            },
                        });
                    }
                } else if !seg.flags.rst {
                    // Stray segment for an unknown connection.
                    self.counters.segs_out += 1;
                    self.counters.rst_sent += 1;
                    out.push(OutSeg {
                        tuple: key,
                        seg: TcpSegment {
                            src_port: key.src.port,
                            dst_port: key.dst.port,
                            seq: seg.ack,
                            ack: 0,
                            flags: TcpFlags::RST,
                            wnd: 0,
                            payload: Payload::empty(),
                        },
                    });
                }
                return;
            }
        };

        let sock = SockId(sid);
        let mut remove = false;
        {
            // by_tuple said the connection exists; if the tables ever
            // disagree, treat the segment as addressed to no one rather
            // than aborting the stack.
            let Some(tcb) = self.conns.get_mut(&sid) else {
                self.by_tuple.remove(&key);
                return;
            };
            if seg.flags.rst {
                if tcb.state == State::SynSent {
                    events.push((tcb.app, TcpEvent::ConnectFailed(sock)));
                } else {
                    events.push((
                        tcb.app,
                        TcpEvent::Closed {
                            sock,
                            kind: CloseKind::Reset,
                        },
                    ));
                }
                remove = true;
            } else {
                match tcb.state {
                    State::SynSent if seg.flags.syn && seg.flags.ack => {
                        tcb.state = State::Established;
                        tcb.snd_una = 1;
                        tcb.snd_nxt = 1;
                        tcb.rcv_nxt = 1;
                        tcb.peer_wnd = seg.wnd;
                        out.push(Self::bare_ack(&mut self.counters, tcb, self.config.rcv_wnd));
                        events.push((tcb.app, TcpEvent::Connected(sock)));
                        Self::pump(&mut self.counters, self.config, tcb, out);
                    }
                    State::SynSent => { /* ignore anything else mid-handshake */ }
                    State::SynRcvd if seg.flags.ack => {
                        tcb.state = State::Established;
                        tcb.snd_una = seg.ack.max(1);
                        tcb.peer_wnd = seg.wnd;
                        let port = tcb.accepted_on.unwrap_or(tcb.local.port);
                        events.push((tcb.app, TcpEvent::Accepted { port, sock }));
                        // The handshake ACK may already carry data.
                        Self::rx_data(
                            &mut self.counters,
                            self.config,
                            tcb,
                            sock,
                            &mut seg,
                            out,
                            events,
                        );
                        Self::pump(&mut self.counters, self.config, tcb, out);
                    }
                    State::SynRcvd => {}
                    State::Established | State::FinSent => {
                        // ACK processing.
                        if seg.flags.ack {
                            let fin_adj = if tcb.state == State::FinSent { 1 } else { 0 };
                            if seg.ack > tcb.snd_una && seg.ack <= tcb.snd_nxt + fin_adj {
                                let mut advance = (seg.ack.min(tcb.snd_nxt) - tcb.snd_una) as usize;
                                tcb.snd_buf_len -= advance;
                                while advance > 0 {
                                    // Acked bytes are buffered by
                                    // construction; stop trimming (not
                                    // the process) if they ever are not.
                                    let Some(front) = tcb.snd_buf.front_mut() else {
                                        break;
                                    };
                                    if front.len() <= advance {
                                        advance -= front.len();
                                        tcb.snd_buf.pop_front();
                                    } else {
                                        front.advance(advance);
                                        advance = 0;
                                    }
                                }
                                tcb.snd_una = seg.ack.min(tcb.snd_nxt);
                            }
                            tcb.peer_wnd = seg.wnd;
                            let had_backlog = tcb.wants_writable;
                            Self::pump(&mut self.counters, self.config, tcb, out);
                            if had_backlog && tcb.snd_buf_len < self.config.snd_buf {
                                tcb.wants_writable = false;
                                events.push((tcb.app, TcpEvent::Writable(sock)));
                            }
                        }
                        // Payload processing.
                        Self::rx_data(
                            &mut self.counters,
                            self.config,
                            tcb,
                            sock,
                            &mut seg,
                            out,
                            events,
                        );
                        // FIN processing.
                        if seg.flags.fin && seg.seq <= tcb.rcv_nxt {
                            tcb.rcv_nxt = tcb.rcv_nxt.max(seg.seq + 1);
                            if tcb.state == State::FinSent {
                                // Simultaneous / responding close completes.
                                out.push(Self::bare_ack(
                                    &mut self.counters,
                                    tcb,
                                    self.config.rcv_wnd,
                                ));
                            } else {
                                // Peer closed: respond with our FIN too.
                                self.counters.segs_out += 1;
                                out.push(OutSeg {
                                    tuple: tcb.key(),
                                    seg: TcpSegment {
                                        src_port: tcb.local.port,
                                        dst_port: tcb.remote.port,
                                        seq: tcb.snd_nxt,
                                        ack: tcb.rcv_nxt,
                                        flags: TcpFlags::FIN_ACK,
                                        wnd: Self::adv_wnd(tcb, self.config.rcv_wnd),
                                        payload: Payload::empty(),
                                    },
                                });
                            }
                            events.push((
                                tcb.app,
                                TcpEvent::Closed {
                                    sock,
                                    kind: CloseKind::Graceful,
                                },
                            ));
                            remove = true;
                        } else if tcb.state == State::FinSent
                            && seg.flags.ack
                            && seg.ack > tcb.snd_nxt
                        {
                            // Our FIN was acked; peer's FIN (if any) handled
                            // above. Treat as fully closed.
                            events.push((
                                tcb.app,
                                TcpEvent::Closed {
                                    sock,
                                    kind: CloseKind::Graceful,
                                },
                            ));
                            remove = true;
                        }
                    }
                }
            }
        }
        if remove {
            if let Some(tcb) = self.conns.remove(&sid) {
                self.by_tuple.remove(&tcb.key());
            }
        }
    }

    /// Receive-side processing of a segment's payload, which it takes out
    /// of `seg`: in the in-order case the segment's own chunks are handed
    /// to the app.
    fn rx_data(
        counters: &mut TcpCounters,
        config: TcpConfig,
        tcb: &mut Tcb,
        sock: SockId,
        seg: &mut TcpSegment,
        out: &mut Vec<OutSeg>,
        events: &mut Vec<(AppId, TcpEvent)>,
    ) {
        let (seq, payload) = (seg.seq, std::mem::take(&mut seg.payload));
        if payload.is_empty() {
            return;
        }
        if seq > tcb.rcv_nxt {
            // Out of order: stash and send a duplicate ack.
            tcb.ooo.insert(seq, payload);
            out.push(Self::bare_ack(counters, tcb, config.rcv_wnd));
            return;
        }
        if seq + payload.len() as u64 <= tcb.rcv_nxt {
            // Entirely duplicate.
            out.push(Self::bare_ack(counters, tcb, config.rcv_wnd));
            return;
        }
        // Trim any already-received prefix. Each scatter-gather piece is
        // delivered as its own chunk, preserving its backing storage.
        let skip = (tcb.rcv_nxt - seq) as usize;
        tcb.rcv_nxt += (payload.len() - skip) as u64;
        let mut chunks = payload.skip(skip).into_chunks();
        // Drain contiguous out-of-order segments.
        loop {
            match tcb.ooo.first_key_value() {
                Some((&s, _)) if s <= tcb.rcv_nxt => {}
                _ => break,
            }
            let Some((s, data)) = tcb.ooo.pop_first() else {
                break;
            };
            if s + data.len() as u64 <= tcb.rcv_nxt {
                continue;
            }
            let skip = (tcb.rcv_nxt - s) as usize;
            tcb.rcv_nxt += (data.len() - skip) as u64;
            chunks.extend(data.skip(skip).into_chunks());
        }
        for chunk in chunks {
            if tcb.paused {
                tcb.rcv_buf_len += chunk.len();
                tcb.rcv_buf.push_back(chunk);
            } else {
                counters.bytes_delivered += chunk.len() as u64;
                events.push((tcb.app, TcpEvent::Data { sock, data: chunk }));
            }
        }
        out.push(Self::bare_ack(counters, tcb, config.rcv_wnd));
    }
}

/// Appends `chunk` to a send buffer, re-joining with the tail when both
/// view the same backing storage (keeps segments full-MSS instead of
/// fragmenting per chunk).
fn push_joined(buf: &mut VecDeque<Bytes>, chunk: Bytes) {
    if let Some(back) = buf.back_mut() {
        if let Some(joined) = back.try_join(&chunk) {
            *back = joined;
            return;
        }
    }
    buf.push_back(chunk);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    /// A small, fixed configuration so window/backpressure tests are
    /// independent of the default (autotuned-style) sizes.
    fn small_config() -> TcpConfig {
        TcpConfig {
            mss: 1448,
            rcv_wnd: 64 * 1024,
            snd_buf: 256 * 1024,
        }
    }

    /// `TcpStack::send` with the segments in a fresh `Vec`.
    fn send(stack: &mut TcpStack, sock: SockId, data: &[u8]) -> (usize, Vec<OutSeg>) {
        let mut out = Vec::new();
        (stack.send(sock, data, &mut out), out)
    }

    fn pair() -> (TcpStack, TcpStack) {
        (TcpStack::new(small_config()), TcpStack::new(small_config()))
    }

    /// Shuttles segments between two stacks until both queues drain,
    /// returning all app events per side.
    fn shuttle(
        a: &mut TcpStack,
        b: &mut TcpStack,
        mut from_a: Vec<OutSeg>,
        mut from_b: Vec<OutSeg>,
    ) -> (Vec<TcpEvent>, Vec<TcpEvent>) {
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        while !from_a.is_empty() || !from_b.is_empty() {
            let mut next_a = Vec::new();
            let mut next_b = Vec::new();
            for s in from_a.drain(..) {
                let (out, ev) = b.input(s.tuple, s.seg);
                next_b.extend(out);
                eb.extend(ev.into_iter().map(|(_, e)| e));
            }
            for s in from_b.drain(..) {
                let (out, ev) = a.input(s.tuple, s.seg);
                next_a.extend(out);
                ea.extend(ev.into_iter().map(|(_, e)| e));
            }
            from_a = next_a;
            from_b = next_b;
        }
        (ea, eb)
    }

    fn establish(a: &mut TcpStack, b: &mut TcpStack) -> (SockId, SockId) {
        b.listen(AppId(0), 3260);
        let (ca, syn) = a.connect(AppId(0), A, SockAddr::new(B, 3260));
        let (ea, eb) = shuttle(a, b, vec![syn], vec![]);
        assert!(matches!(ea[0], TcpEvent::Connected(s) if s == ca));
        let cb = match eb[0] {
            TcpEvent::Accepted { port: 3260, sock } => sock,
            ref other => panic!("expected accept, got {other:?}"),
        };
        (ca, cb)
    }

    #[test]
    fn handshake_and_data_both_ways() {
        let (mut a, mut b) = pair();
        let (ca, cb) = establish(&mut a, &mut b);
        let (n, segs) = send(&mut a, ca, b"hello iscsi");
        assert_eq!(n, 11);
        let (_, eb) = shuttle(&mut a, &mut b, segs, vec![]);
        let got: Vec<u8> = eb
            .iter()
            .filter_map(|e| match e {
                TcpEvent::Data { data, .. } => Some(data.to_vec()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(got, b"hello iscsi");
        // Reverse direction.
        let (_, segs) = send(&mut b, cb, b"response");
        let (ea, _) = shuttle(&mut a, &mut b, vec![], segs);
        assert!(ea.iter().any(|e| matches!(e, TcpEvent::Data { .. })));
        // All data acked after the exchange.
        assert_eq!(a.unacked(ca), 0);
        assert_eq!(b.unacked(cb), 0);
    }

    #[test]
    fn large_transfer_respects_window_and_mss() {
        let (mut a, mut b) = pair();
        let (ca, _cb) = establish(&mut a, &mut b);
        let data = vec![7u8; 200 * 1024];
        let (n, segs) = send(&mut a, ca, &data);
        assert_eq!(n, data.len());
        // Only one window's worth may be in flight initially.
        let sent: usize = segs.iter().map(|s| s.seg.payload.len()).sum();
        assert_eq!(sent, 64 * 1024);
        assert!(segs.iter().all(|s| s.seg.payload.len() <= 1448));
        // Acks release the rest.
        let (_, eb) = shuttle(&mut a, &mut b, segs, vec![]);
        let got: usize = eb
            .iter()
            .filter_map(|e| match e {
                TcpEvent::Data { data, .. } => Some(data.len()),
                _ => None,
            })
            .sum();
        assert_eq!(got, data.len());
        assert_eq!(a.unacked(ca), 0);
    }

    #[test]
    fn send_buffer_backpressure_and_writable() {
        let (mut a, mut b) = pair();
        let (ca, _) = establish(&mut a, &mut b);
        let huge = vec![1u8; 300 * 1024];
        let (n, segs) = send(&mut a, ca, &huge);
        assert_eq!(n, 256 * 1024); // snd_buf cap
        assert!(a.send_capacity(ca) == 0);
        let (ea, _) = shuttle(&mut a, &mut b, segs, vec![]);
        // Once acks drain the buffer the app is told it can write again.
        assert!(ea.iter().any(|e| matches!(e, TcpEvent::Writable(_))));
        assert!(a.send_capacity(ca) > 0);
    }

    #[test]
    fn pause_shrinks_window_and_resume_delivers() {
        let (mut a, mut b) = pair();
        let (ca, cb) = establish(&mut a, &mut b);
        b.pause(cb);
        let data = vec![9u8; 100 * 1024];
        let (_, segs) = send(&mut a, ca, &data);
        let (_, eb) = shuttle(&mut a, &mut b, segs, vec![]);
        // Nothing delivered while paused.
        assert!(!eb.iter().any(|e| matches!(e, TcpEvent::Data { .. })));
        // Sender is stalled: exactly one window of data is unacknowledged...
        // actually acked-but-buffered; the sender has sent only 64 KiB.
        let (mut update, mut events) = (Vec::new(), Vec::new());
        b.resume(cb, &mut update, &mut events);
        let buffered: usize = events
            .iter()
            .filter_map(|(_, e)| match e {
                TcpEvent::Data { data, .. } => Some(data.len()),
                _ => None,
            })
            .sum();
        assert_eq!(buffered, 64 * 1024);
        // The window update lets the sender continue; drain fully.
        let (_, eb2) = shuttle(&mut a, &mut b, vec![], update);
        let rest: usize = eb2
            .iter()
            .filter_map(|e| match e {
                TcpEvent::Data { data, .. } => Some(data.len()),
                _ => None,
            })
            .sum();
        assert_eq!(buffered + rest, data.len());
    }

    #[test]
    fn graceful_close_notifies_both_sides() {
        let (mut a, mut b) = pair();
        let (ca, _cb) = establish(&mut a, &mut b);
        let fin = a.close(ca);
        let (ea, eb) = shuttle(&mut a, &mut b, fin, vec![]);
        assert!(eb.iter().any(|e| matches!(
            e,
            TcpEvent::Closed {
                kind: CloseKind::Graceful,
                ..
            }
        )));
        assert!(ea.iter().any(|e| matches!(
            e,
            TcpEvent::Closed {
                kind: CloseKind::Graceful,
                ..
            }
        )));
        // Both sides cleaned up: further sends are no-ops.
        let (n, _) = send(&mut a, ca, b"x");
        assert_eq!(n, 0);
    }

    #[test]
    fn abort_resets_peer() {
        let (mut a, mut b) = pair();
        let (ca, _cb) = establish(&mut a, &mut b);
        let rst = a.abort(ca);
        let (_, eb) = shuttle(&mut a, &mut b, rst, vec![]);
        assert!(eb.iter().any(|e| matches!(
            e,
            TcpEvent::Closed {
                kind: CloseKind::Reset,
                ..
            }
        )));
    }

    #[test]
    fn connect_to_closed_port_fails() {
        let (mut a, mut b) = pair();
        let (ca, syn) = a.connect(AppId(0), A, SockAddr::new(B, 9999));
        let (ea, _) = shuttle(&mut a, &mut b, vec![syn], vec![]);
        assert!(matches!(ea[0], TcpEvent::ConnectFailed(s) if s == ca));
    }

    #[test]
    fn stray_segment_gets_rst() {
        let (mut _a, mut b) = pair();
        let tuple = FourTuple::new(SockAddr::new(A, 1234), SockAddr::new(B, 3260));
        let seg = TcpSegment {
            src_port: 1234,
            dst_port: 3260,
            seq: 100,
            ack: 5,
            flags: TcpFlags::ACK,
            wnd: 0,
            payload: Bytes::from_static(b"zz").into(),
        };
        let (out, ev) = b.input(tuple, seg);
        assert!(ev.is_empty());
        assert_eq!(out.len(), 1);
        assert!(out[0].seg.flags.rst);
        assert_eq!(b.counters().rst_sent, 1);
    }

    #[test]
    fn ephemeral_ports_are_distinct() {
        let (mut a, _b) = pair();
        let (s1, o1) = a.connect(AppId(0), A, SockAddr::new(B, 3260));
        let (s2, o2) = a.connect(AppId(0), A, SockAddr::new(B, 3260));
        assert_ne!(s1, s2);
        assert_ne!(o1.tuple.src.port, o2.tuple.src.port);
        assert_eq!(a.tuple_of(s1).unwrap().dst.port, 3260);
        assert_eq!(a.tuple_of(s2).unwrap().src.port, o2.tuple.src.port);
    }

    #[test]
    fn data_while_sending_before_connected_is_flushed_on_establish() {
        let (mut a, mut b) = pair();
        b.listen(AppId(0), 3260);
        let (ca, syn) = a.connect(AppId(0), A, SockAddr::new(B, 3260));
        // Queue data before the handshake completes (common for iSCSI login).
        let (n, segs) = send(&mut a, ca, b"early");
        assert_eq!(n, 5);
        assert!(segs.is_empty());
        let (_, eb) = shuttle(&mut a, &mut b, vec![syn], vec![]);
        let got: Vec<u8> = eb
            .iter()
            .filter_map(|e| match e {
                TcpEvent::Data { data, .. } => Some(data.to_vec()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(got, b"early");
    }
}
