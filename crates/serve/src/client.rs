//! The blocking client `floq`, the benches and the test suites use to
//! talk to `flod`, in two layers.
//!
//! [`Client`] is one connection and nothing else: frame requests
//! ([`Client::send`] / [`Client::send_traced`]), read response frames
//! ([`Client::recv_raw`], or [`Client::try_recv_raw`] under a read
//! timeout), and [`Client::call`] for one request and its matching
//! answer. It never retries and never reconnects.
//!
//! [`ClusterClient`] is where every policy lives: it owns one lazily
//! connected [`Client`] per member and has three call entry points —
//! [`ClusterClient::call`] routes a work request to the node the
//! [`crate::cluster::HashRing`] says owns its work key (with breaker,
//! retry budget, ring-successor failover and hedging),
//! [`ClusterClient::call_on`] pins a request to one node, and
//! [`ClusterClient::call_many`] pipelines a routed batch per node.
//! Both single-request paths share one busy-retry loop (bounded
//! exponential backoff with seeded jitter, `FLO_RETRIES`) and one rule
//! for a pooled connection found dead: reconnect once, then report the
//! typed [`ServeError::NodeDown`]. A single daemon is a one-member
//! cluster.

use crate::cluster::{stable_hash64, HashRing, Member, Membership};
use crate::protocol::{
    read_frame_bytes, response_id, work_key, write_frame, FrameError, Request, ServeError,
    TRACE_MASK,
};
use crate::resilience::{Breaker, CircuitState, HedgePolicy, Resilience, RetryBudget};
use crate::server::Listen;
use flo_json::Json;
use flo_obs::Hist;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// A connected client.
pub struct Client {
    conn: Conn,
    next_id: u64,
    next_trace: u64,
}

/// The base of a client's trace-id stream: the jitter seed scrambled by
/// the splitmix64 multiplier (so `FLO_SEED=1` and `FLO_SEED=2` produce
/// far-apart streams), forced odd so consecutive ids never collide with
/// another client's stream stepping from the same base, and confined to
/// [`TRACE_MASK`] (53 bits — the JSON `f64` rail).
fn trace_base(seed: u64) -> u64 {
    (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1) & TRACE_MASK
}

enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl io::Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl io::Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// Decode a response envelope into the `result` payload or the typed
/// error the server sent.
fn decode_response(resp: &Json) -> Result<Json, ServeError> {
    match resp.get("ok").and_then(Json::as_bool) {
        Some(true) => resp
            .get("result")
            .cloned()
            .ok_or_else(|| ServeError::Protocol("ok response lacks `result`".into())),
        Some(false) => {
            let err = resp.get("error");
            let kind = err
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str)
                .unwrap_or("internal");
            let message = err
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            Err(match kind {
                "protocol" => ServeError::Protocol(message),
                "bad-request" => ServeError::BadRequest(message),
                "busy" => ServeError::Busy,
                "deadline" => ServeError::DeadlineExceeded,
                "shutting-down" => ServeError::ShuttingDown,
                "node-down" => ServeError::NodeDown(message),
                _ => ServeError::Internal(message),
            })
        }
        None => Err(ServeError::Protocol("response lacks `ok`".into())),
    }
}

/// Decode a raw response envelope (as returned by [`Client::recv_raw`])
/// into the `result` payload or the typed error the server sent.
pub fn decode_envelope_bytes(bytes: &[u8]) -> Result<Json, ServeError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| ServeError::Protocol(format!("response is not UTF-8: {e}")))?;
    let json = flo_json::parse(text)
        .map_err(|e| ServeError::Protocol(format!("response is not JSON: {e}")))?;
    decode_response(&json)
}

/// The base backoff schedule for the busy-retry loop: `retries`
/// delays, doubling from 25 ms and capped at 800 ms so a deep backoff
/// cannot stall a CLI for seconds. These are the *ceilings* the jittered
/// schedule draws under — see [`retry_schedule`].
pub fn backoff_delays(retries: u32) -> Vec<Duration> {
    (0..retries)
        .map(|i| Duration::from_millis((25u64 << i.min(5)).min(800)))
        .collect()
}

/// The jittered retry schedule: each delay is drawn uniformly from
/// `[base/2, base]` of the corresponding [`backoff_delays`] step, by a
/// seeded xorshift64* stream. Without jitter, N clients bounced by the
/// same busy node all sleep exactly 25 ms and stampede back in lockstep
/// — retry k collides with retry k for every client, forever. Half-range
/// jitter decorrelates the herd (each client should use a distinct
/// seed) while keeping the sum bounded by the deterministic schedule.
///
/// Seeded, not random: the same `(retries, seed)` always yields the same
/// delays, so `FLO_SEED` replays reproduce their timing exactly.
pub fn retry_schedule(retries: u32, seed: u64) -> Vec<Duration> {
    // xorshift64* with a splitmix-style seed scramble; state must be
    // nonzero.
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    backoff_delays(retries)
        .iter()
        .map(|d| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let draw = s.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let base = d.as_millis() as u64;
            Duration::from_millis(base / 2 + draw % (base / 2 + 1))
        })
        .collect()
}

/// The jitter seed: `FLO_SEED` when set (deterministic replay — give
/// each client of a fleet its own seed), otherwise entropy from the
/// process id and the clock so independent unseeded clients decorrelate
/// by default.
pub fn jitter_seed_from_env() -> u64 {
    if let Ok(s) = std::env::var("FLO_SEED") {
        if let Ok(seed) = s.trim().parse::<u64>() {
            return seed;
        }
    }
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0);
    nanos ^ ((std::process::id() as u64) << 32)
}

/// `FLO_RETRIES` (default 0 — a busy server stays a visible, typed
/// error unless the caller opts into waiting it out).
fn retries_from_env() -> u32 {
    std::env::var("FLO_RETRIES")
        .ok()
        .and_then(|s| s.trim().parse::<u32>().ok())
        .unwrap_or(0)
        .min(16)
}

impl Client {
    /// Connect to a daemon.
    pub fn connect(listen: &Listen) -> io::Result<Client> {
        Client::connect_bounded(listen, None)
    }

    /// [`Client::connect`] with a bound on the TCP connect
    /// (`FLO_CONNECT_TIMEOUT_MS` at the cluster layer): a black-holed
    /// address — a routed-away host, a SIGSTOPped peer behind a full
    /// backlog — fails in `timeout` instead of the kernel's minutes-long
    /// SYN retry ladder. Unix-socket connects are not bounded: a dead
    /// path is refused immediately by the kernel, so there is nothing to
    /// wait out.
    pub fn connect_bounded(listen: &Listen, timeout: Option<Duration>) -> io::Result<Client> {
        let conn = match listen {
            Listen::Unix(path) => Conn::Unix(UnixStream::connect(path)?),
            Listen::Tcp(addr) => Conn::Tcp(match timeout {
                None => TcpStream::connect(addr.as_str())?,
                Some(t) => {
                    let sockaddr = addr.to_socket_addrs()?.next().ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidInput,
                            format!("{addr}: no resolvable address"),
                        )
                    })?;
                    TcpStream::connect_timeout(&sockaddr, t)?
                }
            }),
        };
        Ok(Client {
            conn,
            next_id: 1,
            next_trace: trace_base(jitter_seed_from_env()),
        })
    }

    /// Set (or clear) the socket read timeout. With a timeout set,
    /// [`Client::try_recv_raw`] returns `Ok(None)` instead of blocking
    /// when no response arrives in time — the primitive under hedging
    /// and bounded batch collection.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        match &self.conn {
            Conn::Unix(s) => s.set_read_timeout(timeout),
            Conn::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// The next trace id from this client's stream (53-bit, see
    /// [`TRACE_MASK`]). Callers that need one trace across several wire
    /// attempts (retries, failover replays) draw it once and pass it to
    /// [`Client::send_traced`].
    pub fn gen_trace(&mut self) -> u64 {
        let t = self.next_trace;
        self.next_trace = self.next_trace.wrapping_add(1) & TRACE_MASK;
        t
    }

    /// [`Client::connect`] retried until the daemon's socket appears —
    /// for harnesses that just spawned `flod` and must wait for the bind.
    pub fn connect_retry(listen: &Listen, total_wait: Duration) -> io::Result<Client> {
        let deadline = std::time::Instant::now() + total_wait;
        loop {
            match Client::connect(listen) {
                Ok(c) => return Ok(c),
                Err(e) if std::time::Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }

    /// Queue one request without waiting for its answer, stamped with a
    /// fresh trace id from this client's stream. Returns the request id;
    /// collect the response later with [`Client::recv_raw`].
    pub fn send(&mut self, req: &Request, deadline_ms: Option<u64>) -> Result<u64, ServeError> {
        let trace = self.gen_trace();
        self.send_traced(req, deadline_ms, Some(trace))
    }

    /// [`Client::send`] with an explicit trace id (`None` sends an
    /// untraced frame — the server then assigns its own). Retry and
    /// failover layers pass the *same* trace on every attempt, so one
    /// logical request is one trace in every node's telemetry no matter
    /// how many wire attempts it took.
    pub fn send_traced(
        &mut self,
        req: &Request,
        deadline_ms: Option<u64>,
        trace: Option<u64>,
    ) -> Result<u64, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(
            &mut self.conn,
            &req.to_envelope_traced(id, deadline_ms, trace),
        )
        .map_err(|e| ServeError::Protocol(format!("cannot send request: {e}")))?;
        Ok(id)
    }

    /// Read the next response as raw envelope bytes plus its id, whatever
    /// request it answers — the server answers pipelined requests in
    /// *completion* order, not send order. The id is scanned from the
    /// daemon's fixed envelope prefix without a parse ([`response_id`]);
    /// a full parse is the fallback for an unfamiliar prefix. Bulk
    /// callers collect frames at wire speed and run
    /// [`decode_envelope_bytes`] outside their hot loop.
    pub fn recv_raw(&mut self) -> Result<(u64, Vec<u8>), ServeError> {
        self.try_recv_raw()?
            .ok_or_else(|| ServeError::Protocol("read timed out before a response".into()))
    }

    /// [`Client::recv_raw`] that treats a read timeout before any byte as
    /// "nothing yet" (`Ok(None)`) rather than an error. Requires a read
    /// timeout on the socket ([`Client::set_read_timeout`]); without one
    /// it simply blocks like `recv_raw`.
    pub fn try_recv_raw(&mut self) -> Result<Option<(u64, Vec<u8>)>, ServeError> {
        let bytes = match read_frame_bytes(&mut self.conn, &|| false) {
            Ok(b) => b,
            Err(FrameError::Idle) => return Ok(None),
            Err(FrameError::Closed) => {
                return Err(ServeError::Protocol("server closed the connection".into()))
            }
            Err(other) => return Err(ServeError::Protocol(other.to_string())),
        };
        if let Some(id) = response_id(&bytes) {
            return Ok(Some((id, bytes)));
        }
        Self::slow_path_id(bytes).map(Some)
    }

    fn slow_path_id(bytes: Vec<u8>) -> Result<(u64, Vec<u8>), ServeError> {
        let text = std::str::from_utf8(&bytes)
            .map_err(|e| ServeError::Protocol(format!("response is not UTF-8: {e}")))?;
        let id = flo_json::parse(text)
            .map_err(|e| ServeError::Protocol(format!("response is not JSON: {e}")))?
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| ServeError::Protocol("response lacks `id`".into()))?;
        Ok((id, bytes))
    }

    /// Send one request and wait for its answer (the id must match: a
    /// lone caller's responses cannot be reordered). Returns the
    /// `result` payload, or the server's typed error — `busy` included;
    /// retrying is [`ClusterClient`]'s job.
    pub fn call(&mut self, req: &Request, deadline_ms: Option<u64>) -> Result<Json, ServeError> {
        let id = self.send(req, deadline_ms)?;
        let (got, bytes) = self.recv_raw()?;
        matched(got, id, bytes)
    }
}

/// Decode the response to request `want`, or a `Protocol` error when
/// the frame answers some other request.
fn matched(got: u64, want: u64, bytes: Vec<u8>) -> Result<Json, ServeError> {
    if got != want {
        return Err(ServeError::Protocol(format!(
            "response id {got} does not match request id {want}"
        )));
    }
    decode_envelope_bytes(&bytes)
}

/// Per-node send window for [`ClusterClient::call_many`]: at most this
/// many frames are in flight on one node's connection before responses
/// are collected, so a batch never outruns the server's bounded job
/// queue into typed `busy` errors.
pub const DEFAULT_WINDOW: usize = 16;

/// Work-request kinds with their own client-side latency accounting:
/// hedging delays and bounded batch reads key off the per-kind p95.
const WORK_KINDS: [&str; 3] = ["layout", "simulate", "sweep"];

fn kind_index(kind: &str) -> Option<usize> {
    WORK_KINDS.iter().position(|&k| k == kind)
}

/// The error for routing a control request, which has no work key.
fn no_work_key(req: &Request) -> ServeError {
    ServeError::BadRequest(format!(
        "{} has no work key — control requests fan out to every node",
        req.kind()
    ))
}

/// Errors that mean "this node did not serve the request and a
/// different node can": connect failures and torn connections
/// (`NodeDown` / `Protocol`) and a node draining for shutdown
/// (`ShuttingDown`). Typed application errors — `BadRequest`, `Busy`,
/// `DeadlineExceeded` — mean the node is up and answering; failing over
/// would just re-ask the same deterministic question elsewhere.
fn transport_error(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::NodeDown(_) | ServeError::Protocol(_) | ServeError::ShuttingDown
    )
}

/// Per-node health the routing layer maintains: the circuit breaker
/// plus failover/hedge tallies (surfaced via
/// [`ClusterClient::health_json`] into `flotop` / `flostat`).
pub struct NodeHealth {
    /// The node's circuit breaker.
    pub breaker: Breaker,
    /// Requests routed away from this node (open breaker or failover).
    pub failovers: u64,
    /// Hedges fired while this node was the slow primary.
    pub hedges: u64,
    /// Hedges that answered before this node did.
    pub hedge_wins: u64,
    /// Consecutive hedge losses; two in a row count as a breaker
    /// failure so a black-holed node (accepts connects, never answers)
    /// eventually trips the breaker even though nothing errors.
    hedge_losses: u32,
}

impl NodeHealth {
    fn new(threshold: u32, seed: u64) -> NodeHealth {
        NodeHealth {
            breaker: Breaker::new(threshold, seed),
            failovers: 0,
            hedges: 0,
            hedge_wins: 0,
            hedge_losses: 0,
        }
    }
}

/// A cluster-aware client: one lazily connected [`Client`] per member,
/// consistent-hash routing of work keys, per-node pipelining, and —
/// because every work result is a deterministic pure function of the
/// request — transparent ring-successor failover when a node is down.
///
/// Routing is pure — the ring is a function of the membership and the
/// request's [`work_key`] — so every `ClusterClient` over the same
/// membership file sends the same key to the same node, which is what
/// makes each node's cache the single home of its key range. The
/// failover chain ([`HashRing::fallback_chain`]) is equally pure:
/// attempt `k` of any client goes to the same k-th distinct ring
/// successor, so a failed-over key has *one* deterministic second home
/// (and third, …) whose cache warms instead of scattering the key
/// across the cluster.
///
/// Per-node [`Breaker`]s stop a dead node from costing a connect probe
/// per call; the client-wide [`RetryBudget`] bounds how much extra load
/// failover and hedging may add; [`ServeError::NodeDown`] is only
/// surfaced once the owner *and* every configured fallback are
/// unreachable (or with `FLO_FALLBACKS=0`, which restores strict
/// single-owner routing).
pub struct ClusterClient {
    membership: Membership,
    ring: HashRing,
    conns: Vec<Option<Client>>,
    retries: u32,
    jitter_seed: u64,
    next_trace: u64,
    resilience: Resilience,
    health: Vec<NodeHealth>,
    budget: RetryBudget,
    /// Client-side latency (µs) of successful routed calls, per work
    /// kind — the `Auto` hedge delay and the bounded batch read derive
    /// from these p95s.
    kind_lat: [Hist; 3],
    /// Per-kind p95 (µs) seeded once from the server telemetry
    /// snapshot (the PR-8 accumulator), so `Auto` hedging has a floor
    /// before this client has observed anything.
    hedge_seed_us: [Option<u64>; 3],
    hedge_primed: bool,
}

impl ClusterClient {
    /// A client over this membership, with busy-retry, jitter-seed and
    /// resilience settings from the environment (`FLO_RETRIES`,
    /// `FLO_SEED`, `FLO_FALLBACKS`, `FLO_RETRY_BUDGET`, `FLO_HEDGE`,
    /// `FLO_CONNECT_TIMEOUT_MS`).
    pub fn new(membership: Membership) -> ClusterClient {
        ClusterClient::with_resilience(
            membership,
            retries_from_env(),
            jitter_seed_from_env(),
            Resilience::from_env(),
        )
    }

    /// A client with everything explicit — chaos harnesses and tests
    /// pin the whole resilience configuration here.
    pub fn with_resilience(
        membership: Membership,
        retries: u32,
        jitter_seed: u64,
        resilience: Resilience,
    ) -> ClusterClient {
        let ring = HashRing::build(&membership);
        let conns = membership.members.iter().map(|_| None).collect();
        // Per-node breaker seeds: the client seed scrambled by the node
        // id, the same construction the per-node busy-retry jitter uses
        // — deterministic per (seed, membership), decorrelated per node.
        let health = membership
            .members
            .iter()
            .map(|m| {
                NodeHealth::new(
                    resilience.breaker_threshold,
                    jitter_seed ^ stable_hash64(m.id.as_bytes()),
                )
            })
            .collect();
        ClusterClient {
            membership,
            ring,
            conns,
            retries,
            jitter_seed,
            // Offset from the per-connection streams so a cluster
            // client's ids do not collide with its own pooled clients'.
            next_trace: trace_base(jitter_seed ^ 0x5EED_C1A5_7E12),
            budget: RetryBudget::new(resilience.retry_budget),
            resilience,
            health,
            kind_lat: std::array::from_fn(|_| Hist::new()),
            hedge_seed_us: [None; 3],
            hedge_primed: false,
        }
    }

    /// The next trace id from this cluster client's stream — drawn once
    /// per logical request and reused across retries *and* the failover
    /// reconnect, so a request that survives a node restart keeps its
    /// identity in the replacement connection's telemetry.
    fn gen_trace(&mut self) -> u64 {
        let t = self.next_trace;
        self.next_trace = self.next_trace.wrapping_add(1) & TRACE_MASK;
        t
    }

    /// The members, in membership-file order.
    pub fn members(&self) -> &[Member] {
        &self.membership.members
    }

    /// The member index owning a request's work key; `None` for control
    /// requests (`ping` / `stats` / `shutdown`), which have no single
    /// home — use [`ClusterClient::fan_out`] for those.
    pub fn node_of(&self, req: &Request) -> Option<usize> {
        work_key(req).map(|key| self.ring.node_for_key(&key))
    }

    fn node_down(&self, node: usize, why: &str) -> ServeError {
        let m = &self.membership.members[node];
        ServeError::NodeDown(format!(
            "node {} ({}) is unreachable: {why}",
            m.id,
            m.listen.describe()
        ))
    }

    /// The lazily established connection to `node`, or `NodeDown`. TCP
    /// connects are bounded by the configured `FLO_CONNECT_TIMEOUT_MS`.
    fn conn(&mut self, node: usize) -> Result<&mut Client, ServeError> {
        if self.conns[node].is_none() {
            match Client::connect_bounded(
                &self.membership.members[node].listen,
                Some(self.resilience.connect_timeout),
            ) {
                Ok(c) => self.conns[node] = Some(c),
                Err(e) => return Err(self.node_down(node, &format!("connect failed: {e}"))),
            }
        }
        Ok(self.conns[node].as_mut().expect("connection just ensured"))
    }

    /// The failover chain for a request: owner first, then the
    /// configured number of distinct ring successors. `None` for
    /// control requests.
    fn chain_of(&self, req: &Request) -> Option<Vec<usize>> {
        let max = (1 + self.resilience.fallbacks).min(self.membership.len());
        work_key(req).map(|key| self.ring.fallback_chain(&key, max))
    }

    /// The resilience configuration in effect.
    pub fn resilience(&self) -> &Resilience {
        &self.resilience
    }

    /// Per-node health (breaker state, failover/hedge tallies).
    pub fn node_health(&self, node: usize) -> &NodeHealth {
        &self.health[node]
    }

    /// The client-wide retry budget.
    pub fn budget(&self) -> &RetryBudget {
        &self.budget
    }

    /// Send one request along its failover chain: the owner first, then
    /// — on transport failure, budget permitting — each distinct ring
    /// successor. Typed application errors surface immediately (the
    /// node answered); `NodeDown` only when the whole chain is
    /// unreachable.
    pub fn call(&mut self, req: &Request, deadline_ms: Option<u64>) -> Result<Json, ServeError> {
        let Some(chain) = self.chain_of(req) else {
            return Err(no_work_key(req));
        };
        // One trace covers every attempt across every node the chain
        // visits, so a request that fails over reads as one logical
        // request in each node's telemetry.
        let trace = self.gen_trace();
        let t0 = Instant::now();
        let mut last: Option<ServeError> = None;
        let mut attempted = 0usize;
        for (pos, &node) in chain.iter().enumerate() {
            if !self.health[node].breaker.allow() {
                self.health[node].failovers += 1;
                continue;
            }
            if attempted > 0 && !self.budget.try_spend() {
                break;
            }
            attempted += 1;
            let hedge_node = self.hedge_candidate(&chain, pos);
            let result = self.attempt_on(node, hedge_node, req, deadline_ms, trace);
            match self.book(node, req, t0, result) {
                Err(e) if transport_error(&e) => {
                    if pos + 1 < chain.len() {
                        self.health[node].failovers += 1;
                    }
                    last = Some(e);
                }
                answer => return answer,
            }
        }
        match last {
            Some(e) => Err(e),
            None => {
                // Every breaker in the chain was open with no probe due
                // (a full blip). Force one attempt on the owner so the
                // cluster can be rediscovered instead of returning
                // NodeDown forever.
                let result = self.attempt_on(chain[0], None, req, deadline_ms, trace);
                self.book(chain[0], req, t0, result)
            }
        }
    }

    /// Record a routed attempt on `node` that started at `t0`: success
    /// closes the answering node's breaker, refills the retry budget and
    /// feeds the kind's latency histogram; a transport error counts
    /// against `node`'s breaker and drops its connection.
    fn book(
        &mut self,
        node: usize,
        req: &Request,
        t0: Instant,
        result: Result<(Json, usize), ServeError>,
    ) -> Result<Json, ServeError> {
        match result {
            Ok((json, via)) => {
                self.health[via].breaker.on_success();
                self.budget.deposit();
                if let Some(ki) = kind_index(req.kind()) {
                    self.kind_lat[ki].record(t0.elapsed().as_micros() as u64);
                }
                Ok(json)
            }
            Err(e) => {
                if transport_error(&e) {
                    self.health[node].breaker.on_failure();
                    self.conns[node] = None;
                }
                Err(e)
            }
        }
    }

    /// The node a hedge for attempt `pos` would race against the
    /// primary: the next chain entry whose breaker currently allows
    /// traffic. Peeked without consuming a half-open probe slot —
    /// only an actually fired hedge touches the breaker.
    fn hedge_candidate(&self, chain: &[usize], pos: usize) -> Option<usize> {
        if self.resilience.hedge == HedgePolicy::Off {
            return None;
        }
        chain
            .get(pos + 1..)?
            .iter()
            .find(|&&n| self.health[n].breaker.state() == CircuitState::Closed)
            .copied()
    }

    /// Send one request to `node`, bypassing the ring: no breaker,
    /// retry budget, failover or hedge — only the busy-retry loop (the
    /// client's `retries` re-sends on `busy`) and the reconnect-once rule
    /// that [`ClusterClient::call`] also runs. Work requests are
    /// deterministic and response-cached, so a replay after a torn
    /// connection cannot change the answer. `trace` pins the trace id
    /// sent on every wire attempt (the one that lets a reconnect replay
    /// be recognized in a restarted node's telemetry ring); `None` draws
    /// the next id from this client's stream.
    pub fn call_on(
        &mut self,
        node: usize,
        req: &Request,
        deadline_ms: Option<u64>,
        trace: Option<u64>,
    ) -> Result<Json, ServeError> {
        let trace = trace.unwrap_or_else(|| self.gen_trace());
        self.attempt_on(node, None, req, deadline_ms, trace)
            .map(|(json, _)| json)
    }

    /// One request against `node` — the only busy-retry loop: up to
    /// `retries` re-sends on typed `busy`, spaced by the node's jittered
    /// [`retry_schedule`] (seeded by the client seed and the node id) and
    /// all carrying the same trace, with (when configured) a hedge raced
    /// on `hedge_node`. Every other error — including `deadline` and
    /// `shutting-down` — surfaces immediately; only transient queue
    /// pressure is worth waiting out. Returns the payload plus the node
    /// that actually answered.
    fn attempt_on(
        &mut self,
        node: usize,
        hedge_node: Option<usize>,
        req: &Request,
        deadline_ms: Option<u64>,
        trace: u64,
    ) -> Result<(Json, usize), ServeError> {
        let delays = retry_schedule(
            self.retries,
            self.jitter_seed ^ stable_hash64(self.membership.members[node].id.as_bytes()),
        );
        let mut last = self.attempt_once(node, hedge_node, req, deadline_ms, trace);
        for delay in &delays {
            match &last {
                Err(ServeError::Busy) => {
                    std::thread::sleep(*delay);
                    last = self.attempt_once(node, hedge_node, req, deadline_ms, trace);
                }
                _ => break,
            }
        }
        last
    }

    /// One wire attempt — the only reconnect rule: when the pooled
    /// connection turns out to be dead (a restarted or crashed node),
    /// reconnect once; a second failure is the node's, not the pool's.
    fn attempt_once(
        &mut self,
        node: usize,
        hedge_node: Option<usize>,
        req: &Request,
        deadline_ms: Option<u64>,
        trace: u64,
    ) -> Result<(Json, usize), ServeError> {
        let had_conn = self.conns[node].is_some();
        let first = self.attempt_wire(node, hedge_node, req, deadline_ms, trace);
        match first {
            Err(ServeError::Protocol(_)) if had_conn => {
                self.conns[node] = None;
                self.attempt_wire(node, hedge_node, req, deadline_ms, trace)
            }
            other => other,
        }
    }

    /// Send on `node`'s connection; when hedging applies, wait only the
    /// hedge delay before racing a second copy on `hedge_node`.
    fn attempt_wire(
        &mut self,
        node: usize,
        hedge_node: Option<usize>,
        req: &Request,
        deadline_ms: Option<u64>,
        trace: u64,
    ) -> Result<(Json, usize), ServeError> {
        let hedge = match hedge_node {
            Some(h) => self.hedge_delay_for(req).map(|delay| (h, delay)),
            None => None,
        };
        let id = self
            .conn(node)?
            .send_traced(req, deadline_ms, Some(trace))?;
        let c = self.conns[node].as_mut().expect("connection just ensured");
        // Without a hedge (or a timer to arm for one), wait on the primary.
        let h = match hedge {
            Some((h, delay)) if c.set_read_timeout(Some(delay)).is_ok() => h,
            _ => {
                let (got, bytes) = c.recv_raw()?;
                return matched(got, id, bytes).map(|j| (j, node));
            }
        };
        match c.try_recv_raw() {
            Ok(Some((got, bytes))) => {
                let _ = c.set_read_timeout(None);
                matched(got, id, bytes).map(|j| (j, node))
            }
            Ok(None) => self.race_hedge(node, id, h, req, deadline_ms, trace),
            Err(e) => {
                let _ = c.set_read_timeout(None);
                Err(e)
            }
        }
    }

    /// The primary on `node` is slow past the hedge delay: race a
    /// second copy on `h` and return whichever answers first. The
    /// loser's connection is dropped (its response is still in flight
    /// and would desynchronize the pool); server-side single-flight on
    /// the work key means the loser's node wastes no duplicate compute.
    fn race_hedge(
        &mut self,
        primary: usize,
        primary_id: u64,
        h: usize,
        req: &Request,
        deadline_ms: Option<u64>,
        trace: u64,
    ) -> Result<(Json, usize), ServeError> {
        // Hedging costs a retry-budget token and a half-open slot on the
        // hedge node; without either, just keep waiting on the primary.
        if !self.budget.try_spend() || !self.health[h].breaker.allow() {
            return self.block_on_primary(primary, primary_id);
        }
        self.health[primary].hedges += 1;
        let hedge_id = match self
            .conn(h)
            .and_then(|c| c.send_traced(req, deadline_ms, Some(trace)))
        {
            Ok(id) => id,
            Err(_) => {
                // The hedge node is down too; the primary is all we have.
                self.health[h].breaker.on_failure();
                self.conns[h] = None;
                return self.block_on_primary(primary, primary_id);
            }
        };
        // Poll both connections in short slices until one answers. The
        // overall race is capped so two simultaneously black-holed nodes
        // cannot hold the caller forever — the cap surfaces as a
        // transport error, which the chain above treats as failover.
        let slice = Duration::from_millis(5);
        let cap = Instant::now() + Duration::from_secs(60);
        for conn_idx in [primary, h] {
            if let Some(c) = self.conns[conn_idx].as_mut() {
                let _ = c.set_read_timeout(Some(slice));
            }
        }
        let mut primary_err: Option<ServeError> = None;
        let mut hedge_err: Option<ServeError> = None;
        loop {
            if primary_err.is_none() {
                match self.conns[primary]
                    .as_mut()
                    .expect("primary connected")
                    .try_recv_raw()
                {
                    Ok(Some((got, bytes))) if got == primary_id => {
                        // Primary wins: the hedge's answer is still in
                        // flight on h's connection — drop it.
                        self.conns[h] = None;
                        self.health[primary].hedge_losses = 0;
                        if let Some(c) = self.conns[primary].as_mut() {
                            let _ = c.set_read_timeout(None);
                        }
                        return matched(got, primary_id, bytes).map(|j| (j, primary));
                    }
                    Ok(Some(_)) | Ok(None) => {}
                    Err(e) => primary_err = Some(e),
                }
            }
            if hedge_err.is_none() {
                match self.conns[h]
                    .as_mut()
                    .expect("hedge connected")
                    .try_recv_raw()
                {
                    Ok(Some((got, bytes))) if got == hedge_id => {
                        // Hedge wins: drop the primary's connection (its
                        // answer, if any ever comes, is stray now).
                        self.conns[primary] = None;
                        self.health[primary].hedge_wins += 1;
                        self.health[primary].hedge_losses += 1;
                        if self.health[primary].hedge_losses >= 2 {
                            // Two silent losses in a row: the primary is
                            // black-holed, not merely slow — trip it.
                            self.health[primary].breaker.on_failure();
                            self.health[primary].hedge_losses = 0;
                        }
                        if let Some(c) = self.conns[h].as_mut() {
                            let _ = c.set_read_timeout(None);
                        }
                        return matched(got, hedge_id, bytes).map(|j| (j, h));
                    }
                    Ok(Some(_)) | Ok(None) => {}
                    Err(e) => {
                        self.health[h].breaker.on_failure();
                        self.conns[h] = None;
                        hedge_err = Some(e);
                    }
                }
            }
            if let (Some(e), true) = (&primary_err, hedge_err.is_some()) {
                return Err(e.clone());
            }
            if primary_err.is_some() && self.conns[h].is_none() {
                return Err(primary_err.take().expect("primary error set"));
            }
            if Instant::now() >= cap {
                self.conns[primary] = None;
                self.conns[h] = None;
                return Err(ServeError::Protocol(
                    "hedge race timed out: neither node answered".into(),
                ));
            }
        }
    }

    fn block_on_primary(
        &mut self,
        primary: usize,
        primary_id: u64,
    ) -> Result<(Json, usize), ServeError> {
        let c = self.conns[primary].as_mut().expect("primary connected");
        let _ = c.set_read_timeout(None);
        let (got, bytes) = c.recv_raw()?;
        matched(got, primary_id, bytes).map(|j| (j, primary))
    }

    /// How long to wait before hedging this request, per the configured
    /// policy. `Auto` uses the kind's p95 — the larger of the
    /// snapshot-seeded floor and the client's own observations —
    /// clamped to [5 ms, 2 s]; no hedge until at least one source has
    /// data, so cold kinds never hedge blindly.
    fn hedge_delay_for(&mut self, req: &Request) -> Option<Duration> {
        let ki = kind_index(req.kind())?;
        match self.resilience.hedge {
            HedgePolicy::Off => None,
            HedgePolicy::FixedMs(ms) => Some(Duration::from_millis(ms.max(1))),
            HedgePolicy::Auto => {
                self.prime_hedge();
                let local =
                    (self.kind_lat[ki].count() >= 8).then(|| self.kind_lat[ki].quantile(0.95));
                let us = match (local, self.hedge_seed_us[ki]) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                }?;
                Some(Duration::from_micros(us.clamp(5_000, 2_000_000)))
            }
        }
    }

    /// One-time seeding of the `Auto` hedge floors from the cluster's
    /// telemetry snapshot: the per-kind `total_us` p95 of whatever the
    /// nodes have already served. Nodes without telemetry (or without
    /// samples for a kind) simply contribute nothing.
    fn prime_hedge(&mut self) {
        if self.hedge_primed {
            return;
        }
        self.hedge_primed = true;
        for (_, result) in self.fan_out(&Request::Telemetry, Some(2_000)) {
            let Ok(snap) = result else { continue };
            let Some(kinds) = snap.get("kinds") else {
                continue;
            };
            for (ki, kind) in WORK_KINDS.iter().enumerate() {
                let p95 = kinds
                    .get(kind)
                    .and_then(|k| k.get("total_us"))
                    .and_then(|t| t.get("p95"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
                if p95 > 0 {
                    self.hedge_seed_us[ki] =
                        Some(self.hedge_seed_us[ki].map_or(p95, |v| v.max(p95)));
                }
            }
        }
    }

    /// The read timeout for collecting a batch chunk whose requests are
    /// of `kinds_present`: 8× the worst per-kind p95, clamped to
    /// [500 ms, 15 s]. `None` — block indefinitely, the pre-failover
    /// behavior — until every present kind has at least 8 samples, so a
    /// cold cluster's first heavy computations are never cut short.
    fn batch_read_timeout(&self, kinds_present: &[bool; 3]) -> Option<Duration> {
        if self.resilience.fallbacks == 0 {
            return None;
        }
        let mut worst = 0u64;
        for (ki, present) in kinds_present.iter().enumerate() {
            if *present {
                if self.kind_lat[ki].count() < 8 {
                    return None;
                }
                worst = worst.max(self.kind_lat[ki].quantile(0.95));
            }
        }
        (worst > 0).then(|| Duration::from_micros((worst * 8).clamp(500_000, 15_000_000)))
    }

    /// Route a whole batch: group requests by owning node, pipeline each
    /// node's share in windows of `window` frames (see
    /// [`DEFAULT_WINDOW`]), and return results in *request* order. Each
    /// answered request yields its raw envelope bytes — run
    /// [`decode_envelope_bytes`] for the payload, outside any timed loop;
    /// `Err` is reserved for transport-level failures: routing a control
    /// request (`BadRequest`) or a whole chain unreachable (`NodeDown`).
    /// There is no busy-retry here: the window keeps a batch inside the
    /// server's bounded job queue instead.
    ///
    /// Failure handling per node group: a connect failure, a torn
    /// connection, or (once per-kind latency samples exist) a read that
    /// outlives the batch read timeout (8× worst per-kind p95) — the
    /// black-holed node case — marks the node's breaker, costs one retry-budget
    /// token, and re-queues the group's unanswered requests at the next
    /// position of each one's own fallback chain. Re-routing is
    /// assignment, not broadcast: each request lands on exactly one
    /// node per round, so no duplicate responses can ever be collected.
    pub fn call_many(
        &mut self,
        reqs: &[Request],
        deadline_ms: Option<u64>,
        window: usize,
    ) -> Vec<Result<Vec<u8>, ServeError>> {
        /// Chain position marking "whole chain was gated; owner forced,
        /// no further failover".
        const FORCED: usize = usize::MAX;
        let mut out: Vec<Option<Result<Vec<u8>, ServeError>>> = reqs.iter().map(|_| None).collect();
        let chains: Vec<Option<Vec<usize>>> = reqs.iter().map(|r| self.chain_of(r)).collect();
        let mut pending: Vec<(usize, usize)> = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            match &chains[i] {
                Some(_) => pending.push((i, 0)),
                None => out[i] = Some(Err(no_work_key(req))),
            }
        }
        while !pending.is_empty() {
            // Assign every pending request to the first node at or after
            // its chain position whose breaker admits traffic. A node
            // coming out of an open period admits exactly one request —
            // the half-open probe — and the rest of its share falls
            // through to the next chain entry for this round.
            let mut by_node: Vec<Vec<(usize, usize)>> =
                self.membership.members.iter().map(|_| vec![]).collect();
            for (i, mut pos) in pending.drain(..) {
                let chain = chains[i].as_ref().expect("pending implies a chain");
                loop {
                    if pos >= chain.len() {
                        // Whole chain gated with no probe due: force the
                        // owner once so a full blip can recover.
                        by_node[chain[0]].push((i, FORCED));
                        break;
                    }
                    let node = chain[pos];
                    if self.health[node].breaker.allow() {
                        by_node[node].push((i, pos));
                        break;
                    }
                    self.health[node].failovers += 1;
                    pos += 1;
                }
            }
            for (node, slot) in by_node.iter_mut().enumerate() {
                let group = std::mem::take(slot);
                if group.is_empty() {
                    continue;
                }
                let mut kinds_present = [false; 3];
                for &(i, _) in &group {
                    if let Some(ki) = kind_index(reqs[i].kind()) {
                        kinds_present[ki] = true;
                    }
                }
                let read_timeout = self.batch_read_timeout(&kinds_present);
                let mut failed: Option<ServeError> = None;
                let mut answered = 0usize;
                'chunks: for chunk in group.chunks(window.max(1)) {
                    let client = match self.conn(node) {
                        Ok(c) => c,
                        Err(e) => {
                            failed = Some(e);
                            break 'chunks;
                        }
                    };
                    let mut inflight: Vec<(u64, usize)> = Vec::with_capacity(chunk.len());
                    for &(i, _) in chunk {
                        match client.send(&reqs[i], deadline_ms) {
                            Ok(id) => inflight.push((id, i)),
                            Err(e) => {
                                // The write side died; answer what is
                                // already in flight, then mark the rest.
                                failed = Some(e);
                                break;
                            }
                        }
                    }
                    if read_timeout.is_some() && client.set_read_timeout(read_timeout).is_err() {
                        failed = Some(ServeError::Protocol("cannot set read timeout".into()));
                    }
                    if failed.is_none() {
                        for _ in 0..inflight.len() {
                            let next = match read_timeout {
                                Some(_) => match client.try_recv_raw() {
                                    Ok(Some(r)) => Ok(r),
                                    Ok(None) => Err(ServeError::Protocol(
                                        "read timed out — node unresponsive".into(),
                                    )),
                                    Err(e) => Err(e),
                                },
                                None => client.recv_raw(),
                            };
                            match next {
                                Ok((id, bytes)) => {
                                    if let Some(&(_, i)) =
                                        inflight.iter().find(|&&(sent, _)| sent == id)
                                    {
                                        out[i] = Some(Ok(bytes));
                                        answered += 1;
                                    }
                                }
                                Err(e) => {
                                    failed = Some(e);
                                    break;
                                }
                            }
                        }
                    }
                    if read_timeout.is_some() {
                        let _ = client.set_read_timeout(None);
                    }
                    if failed.is_some() {
                        break 'chunks;
                    }
                }
                for _ in 0..answered {
                    self.budget.deposit();
                }
                match failed {
                    None => self.health[node].breaker.on_success(),
                    Some(e) => {
                        // The connection is unusable; drop it, mark the
                        // breaker, and fail the unanswered share over to
                        // each request's next chain entry. One budget
                        // token covers the whole group's re-route — the
                        // budget gates extra *connection* attempts, and
                        // the re-route adds exactly one.
                        self.health[node].breaker.on_failure();
                        self.conns[node] = None;
                        let unanswered: Vec<(usize, usize)> = group
                            .iter()
                            .filter(|&&(i, _)| out[i].is_none())
                            .copied()
                            .collect();
                        let can_reroute = !unanswered.is_empty() && self.budget.try_spend();
                        for (i, pos) in unanswered {
                            let chain = chains[i].as_ref().expect("pending implies a chain");
                            if can_reroute && pos != FORCED && pos + 1 < chain.len() {
                                self.health[node].failovers += 1;
                                pending.push((i, pos + 1));
                            } else {
                                out[i] = Some(Err(self.node_down(node, &e.to_string())));
                            }
                        }
                    }
                }
            }
        }
        out.into_iter()
            .map(|r| r.expect("every request answered or marked"))
            .collect()
    }

    /// Send a control request to *every* node, in membership order.
    /// Returns `(node id, result)` pairs; an unreachable node
    /// contributes its typed `NodeDown` error instead of halting the
    /// fan-out.
    pub fn fan_out(
        &mut self,
        req: &Request,
        deadline_ms: Option<u64>,
    ) -> Vec<(String, Result<Json, ServeError>)> {
        (0..self.membership.members.len())
            .map(|node| {
                let id = self.membership.members[node].id.clone();
                let result = self.call_on(node, req, deadline_ms, None);
                match &result {
                    Ok(_) => self.health[node].breaker.on_success(),
                    // Whatever failed, do not trust the pooled stream —
                    // and let the breaker learn from control-plane
                    // probes too, so `flostat health` reflects reality
                    // even on a client that only ever fans out.
                    Err(ServeError::NodeDown(_) | ServeError::Protocol(_)) => {
                        self.health[node].breaker.on_failure();
                        self.conns[node] = None;
                    }
                    Err(_) => {}
                }
                (id, result)
            })
            .collect()
    }

    /// Fan a `telemetry` request out to every node and merge the
    /// per-node snapshots into one cluster-wide view
    /// ([`flo_obs::merge_snapshots`]): histograms add, cache tallies
    /// add, the slowest-traces list is re-ranked with each entry tagged
    /// by its node. Returns `{"nodes": {...}, "merged": {...}}` plus a
    /// flag for whether any node failed to answer (its entry carries the
    /// error string; the merge covers the nodes that did answer).
    pub fn telemetry_snapshot(&mut self, deadline_ms: Option<u64>) -> (Json, bool) {
        let per_node = self.fan_out(&Request::Telemetry, deadline_ms);
        let mut nodes = Json::obj();
        let mut answered: Vec<(String, Json)> = Vec::new();
        let mut failed = false;
        for (id, result) in per_node {
            match result {
                Ok(snapshot) => {
                    nodes = nodes.set(&id, snapshot.clone());
                    answered.push((id, snapshot));
                }
                Err(e) => {
                    failed = true;
                    nodes = nodes.set(&id, Json::obj().set("error", e.to_string()));
                }
            }
        }
        let merged = flo_obs::merge_snapshots(&answered);
        (
            Json::obj()
                .set("nodes", nodes)
                .set("merged", merged)
                .set("client_health", self.health_json()),
            failed,
        )
    }

    /// The client-side view of cluster health as JSON: per-node circuit
    /// state and counters, plus the shared retry-budget gauge. This is
    /// what `flostat health` and the `flotop` health line render.
    pub fn health_json(&self) -> Json {
        let mut nodes = Json::obj();
        for (node, h) in self.health.iter().enumerate() {
            nodes = nodes.set(
                &self.membership.members[node].id,
                Json::obj()
                    .set("state", h.breaker.state().name())
                    .set("opens", h.breaker.opens)
                    .set("probes", h.breaker.probes)
                    .set("failovers", h.failovers)
                    .set("hedges", h.hedges)
                    .set("hedge_wins", h.hedge_wins),
            );
        }
        Json::obj().set("nodes", nodes).set(
            "budget",
            Json::obj()
                .set("balance", self.budget.balance())
                .set("spent", self.budget.spent)
                .set("denied", self.budget.denied),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        assert!(
            backoff_delays(0).is_empty(),
            "default FLO_RETRIES=0 never sleeps"
        );
        let d = backoff_delays(7);
        assert_eq!(d.len(), 7);
        assert_eq!(d[0], Duration::from_millis(25));
        assert_eq!(d[1], Duration::from_millis(50));
        assert_eq!(d[4], Duration::from_millis(400));
        assert_eq!(d[5], Duration::from_millis(800), "cap at 800 ms");
        assert_eq!(d[6], Duration::from_millis(800), "stays capped");
    }

    #[test]
    fn jittered_schedule_is_seeded_and_bounded() {
        let a = retry_schedule(7, 42);
        let b = retry_schedule(7, 42);
        assert_eq!(a, b, "same seed, same delays — FLO_SEED replays exactly");
        let c = retry_schedule(7, 43);
        assert_ne!(a, c, "different seeds decorrelate the herd");
        for (jittered, base) in a.iter().zip(backoff_delays(7)) {
            assert!(
                *jittered >= base / 2 && *jittered <= base,
                "jitter {jittered:?} outside [{:?}, {base:?}]",
                base / 2
            );
        }
    }

    #[test]
    fn decode_maps_typed_errors() {
        let busy = crate::protocol::err_response(3, &ServeError::Busy);
        assert_eq!(decode_response(&busy), Err(ServeError::Busy));
        let ok = crate::protocol::ok_response(4, Json::obj().set("pong", true));
        let payload = decode_response(&ok).unwrap();
        assert_eq!(payload.get("pong").and_then(Json::as_bool), Some(true));
        let junk = Json::obj().set("id", 9u64);
        assert!(matches!(
            decode_response(&junk),
            Err(ServeError::Protocol(_))
        ));
    }
}
