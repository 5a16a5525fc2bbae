//! The non-intrusive virtualization layer (paper §4.3).
//!
//! Tally interposes on the device API via `LD_PRELOAD`: the client library
//! intercepts each call and either answers it from locally cached execution
//! state (`cudaGetDevice` and friends) or forwards it to the Tally server
//! over a shared-memory channel. This module models that layer — call
//! taxonomy, channel costs, and the client-side state cache — precisely
//! enough to reproduce the paper's ~1% virtualization-overhead result and
//! to let the overhead bench show *why* local-state caching matters.

use tally_gpu::SimSpan;

/// A device API call, classified the way the interception layer cares
/// about: does it mutate device state (must forward) or only read
/// execution-context state (cacheable client-side)?
///
/// `Ord` exists so calls can key ordered containers, which never expose
/// hash order; the derived variant ordering carries no semantic meaning.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ApiCall {
    /// `cuLaunchKernel` — always forwarded.
    LaunchKernel,
    /// Host-to-device copy of `usize` bytes — forwarded.
    MemcpyHtoD(usize),
    /// Device-to-host copy — forwarded (synchronous).
    MemcpyDtoH(usize),
    /// `cuStreamSynchronize` — forwarded.
    StreamSynchronize,
    /// `cuMemAlloc` — forwarded.
    MemAlloc(usize),
    /// `__cudaRegisterFatBinary` — forwarded once at startup; this is the
    /// interception point where the server captures device code (PTX).
    RegisterFatbin,
    /// `cudaGetDevice` — cacheable.
    GetDevice,
    /// `cudaGetDeviceProperties` — cacheable.
    GetDeviceProperties,
    /// `cudaGetLastError` in the common no-error fast path — cacheable.
    GetLastError,
    /// `cudaStreamQuery`-style context reads — cacheable.
    ContextQuery,
}

impl ApiCall {
    /// Whether the call can be answered from client-side cached state after
    /// first being observed.
    pub fn cacheable(&self) -> bool {
        self.cache_bit().is_some()
    }

    /// The call's bit in a [`ClientStub`]'s cache mask; `None` for calls
    /// that must always forward. Payloads never matter: only payload-free
    /// context reads are cacheable.
    fn cache_bit(&self) -> Option<u8> {
        match self {
            ApiCall::GetDevice => Some(1),
            ApiCall::GetDeviceProperties => Some(1 << 1),
            ApiCall::GetLastError => Some(1 << 2),
            ApiCall::ContextQuery => Some(1 << 3),
            _ => None,
        }
    }

    /// Whether the call has asynchronous semantics: the client posts it
    /// into the channel and returns without waiting for the server's
    /// response (`cuLaunchKernel` and stream-ordered copies). Synchronous
    /// calls pay the full channel round trip.
    pub fn asynchronous(&self) -> bool {
        matches!(self, ApiCall::LaunchKernel | ApiCall::MemcpyHtoD(_))
    }
}

/// The client↔server transport.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Transport {
    /// Shared-memory message channel: no context switch on the fast path
    /// (~2 µs round trip) — Tally's choice.
    SharedMemory,
    /// A Unix-domain-socket style channel (~25 µs round trip) — what a
    /// naive forwarding layer would pay.
    Socket,
}

impl Transport {
    /// Round-trip forwarding latency of one synchronous API call.
    pub fn round_trip(self) -> SimSpan {
        match self {
            Transport::SharedMemory => SimSpan::from_micros(2),
            Transport::Socket => SimSpan::from_micros(25),
        }
    }

    /// One-way posting cost of an asynchronous call: the client writes the
    /// message and continues without waiting for a response (a lock-free
    /// ring write for the shared-memory channel; a send syscall for the
    /// socket one).
    pub fn enqueue(self) -> SimSpan {
        match self {
            Transport::SharedMemory => SimSpan::from_nanos(150),
            Transport::Socket => SimSpan::from_micros(5),
        }
    }
}

/// Counters of interception activity.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct InterceptStats {
    /// Calls forwarded to the server.
    pub forwarded: u64,
    /// Calls served from the client-side state cache.
    pub served_locally: u64,
    /// Total time spent in the interception layer.
    pub total_cost: SimSpan,
}

impl InterceptStats {
    /// Fraction of calls that avoided a server round trip.
    pub fn local_fraction(&self) -> f64 {
        let total = self.forwarded + self.served_locally;
        if total == 0 {
            0.0
        } else {
            self.served_locally as f64 / total as f64
        }
    }
}

/// The client-side interception stub: forwards state-mutating calls,
/// caches context reads locally after first sight.
///
/// ```
/// use tally_core::api::{ApiCall, ClientStub, Transport};
///
/// let mut stub = ClientStub::new(Transport::SharedMemory);
/// stub.call(&ApiCall::GetDevice);  // first sight: forwarded
/// stub.call(&ApiCall::GetDevice);  // now local
/// stub.call(&ApiCall::LaunchKernel);
/// assert_eq!(stub.stats().forwarded, 2);
/// assert_eq!(stub.stats().served_locally, 1);
/// ```
#[derive(Debug)]
pub struct ClientStub {
    transport: Transport,
    /// The cacheable calls seen so far, one bit each (see
    /// `ApiCall::cache_bit`).
    cache: u8,
    caching_enabled: bool,
    stats: InterceptStats,
}

/// Cost of answering a call from the local cache (a table lookup).
const LOCAL_COST: SimSpan = SimSpan::from_nanos(25);

/// The calls a client issues once at startup, when it attaches to the
/// server: fatbin registration (the PTX capture point) plus the device
/// discovery burst every CUDA runtime performs.
const ATTACH_CALLS: [ApiCall; 5] = [
    ApiCall::RegisterFatbin,
    ApiCall::GetDeviceProperties,
    ApiCall::GetDevice,
    ApiCall::ContextQuery,
    ApiCall::GetLastError,
];

/// The call sequence a DL framework issues around one kernel launch: a
/// device check, several error/context queries bracketing argument setup
/// (frameworks call `cudaGetLastError`-style probes liberally), and the
/// launch itself. Only the launch mutates device state; everything else is
/// answerable from the client-side cache after first sight.
const LAUNCH_CALLS: [ApiCall; 11] = [
    ApiCall::GetDevice,
    ApiCall::GetLastError,
    ApiCall::ContextQuery,
    ApiCall::GetLastError,
    ApiCall::ContextQuery,
    ApiCall::GetLastError,
    ApiCall::ContextQuery,
    ApiCall::GetLastError,
    ApiCall::ContextQuery,
    ApiCall::LaunchKernel,
    ApiCall::GetLastError,
];

impl ClientStub {
    /// A stub over the given transport, with local-state caching enabled.
    pub fn new(transport: Transport) -> Self {
        ClientStub {
            transport,
            cache: 0,
            caching_enabled: true,
            stats: InterceptStats::default(),
        }
    }

    /// Disables the local-state cache (every call forwards) — the ablation
    /// the §4.3 optimization discussion implies.
    pub fn without_caching(transport: Transport) -> Self {
        ClientStub {
            caching_enabled: false,
            ..ClientStub::new(transport)
        }
    }

    /// Executes one intercepted call; returns the time it cost the client.
    ///
    /// Forwarded synchronous calls pay the transport round trip; forwarded
    /// asynchronous calls ([`ApiCall::asynchronous`]) only pay the one-way
    /// [`Transport::enqueue`] cost — the client does not wait for them.
    pub fn call(&mut self, api: &ApiCall) -> SimSpan {
        let bit = api.cache_bit().filter(|_| self.caching_enabled);
        let cost = if bit.is_some_and(|b| self.cache & b != 0) {
            self.stats.served_locally += 1;
            LOCAL_COST
        } else {
            self.stats.forwarded += 1;
            if let Some(b) = bit {
                self.cache |= b;
            }
            if api.asynchronous() {
                self.transport.enqueue()
            } else {
                self.transport.round_trip()
            }
        };
        self.stats.total_cost += cost;
        cost
    }

    /// Executes the client's startup burst (issued once, when the client
    /// attaches to the server) and returns its total cost.
    pub fn attach_burst(&mut self) -> SimSpan {
        let mut total = SimSpan::ZERO;
        for call in &ATTACH_CALLS {
            total += self.call(call);
        }
        total
    }

    /// Executes the per-kernel-launch call sequence and returns its total
    /// cost — the latency the interception layer adds in front of one
    /// logical kernel launch.
    ///
    /// At steady state one call of the sequence forwards (the launch) and
    /// ten are served locally, so a long-running client's
    /// [`InterceptStats::local_fraction`] approaches 10/11 ≈ 0.91 — the
    /// paper's observation that local-state caching removes the vast
    /// majority of round trips.
    pub fn launch_burst(&mut self) -> SimSpan {
        let mut total = SimSpan::ZERO;
        for call in &LAUNCH_CALLS {
            total += self.call(call);
        }
        total
    }

    /// Interception counters so far.
    pub fn stats(&self) -> InterceptStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tally_gpu::rng::SmallRng;

    #[test]
    fn cacheable_calls_go_local_after_first_sight() {
        let mut stub = ClientStub::new(Transport::SharedMemory);
        assert_eq!(stub.call(&ApiCall::GetDevice), SimSpan::from_micros(2));
        assert_eq!(stub.call(&ApiCall::GetDevice), LOCAL_COST);
        assert_eq!(stub.call(&ApiCall::GetLastError), SimSpan::from_micros(2));
        assert_eq!(stub.call(&ApiCall::GetLastError), LOCAL_COST);
        assert!((stub.stats().local_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mutating_calls_always_forward() {
        let mut stub = ClientStub::new(Transport::SharedMemory);
        for _ in 0..3 {
            // Launches are asynchronous: forwarded at the enqueue cost.
            assert_eq!(
                stub.call(&ApiCall::LaunchKernel),
                Transport::SharedMemory.enqueue()
            );
        }
        // Synchronization is a synchronous call: the full round trip.
        assert_eq!(
            stub.call(&ApiCall::StreamSynchronize),
            SimSpan::from_micros(2)
        );
        assert_eq!(stub.stats().forwarded, 4);
        assert_eq!(stub.stats().served_locally, 0);
    }

    #[test]
    fn disabling_cache_forwards_everything() {
        let mut stub = ClientStub::without_caching(Transport::Socket);
        stub.call(&ApiCall::GetDevice);
        stub.call(&ApiCall::GetDevice);
        assert_eq!(stub.stats().forwarded, 2);
        assert_eq!(stub.stats().total_cost, SimSpan::from_micros(50));
    }

    #[test]
    fn shared_memory_is_cheaper_than_socket() {
        assert!(Transport::SharedMemory.round_trip() < Transport::Socket.round_trip());
    }

    #[test]
    fn steady_state_launch_bursts_stay_local() {
        let mut stub = ClientStub::new(Transport::SharedMemory);
        stub.attach_burst();
        for _ in 0..100 {
            stub.launch_burst();
        }
        let s = stub.stats();
        // Per burst: one forwarded launch, ten cached context reads.
        assert_eq!(s.forwarded, 5 + 100);
        assert!(s.local_fraction() >= 0.9, "got {:.3}", s.local_fraction());
        // Steady-state burst cost: one async enqueue plus ten cache hits.
        let steady = stub.launch_burst();
        assert_eq!(steady, Transport::SharedMemory.enqueue() + LOCAL_COST * 10);
    }

    /// The stub's specification, written independently of its cache
    /// representation: a set of the cacheable calls seen so far.
    struct ReferenceStub {
        transport: Transport,
        caching: bool,
        seen: BTreeSet<ApiCall>,
        stats: InterceptStats,
    }

    impl ReferenceStub {
        fn call(&mut self, api: &ApiCall) -> SimSpan {
            let cacheable = matches!(
                api,
                ApiCall::GetDevice
                    | ApiCall::GetDeviceProperties
                    | ApiCall::GetLastError
                    | ApiCall::ContextQuery
            );
            let cost = if self.caching && cacheable && self.seen.contains(api) {
                self.stats.served_locally += 1;
                LOCAL_COST
            } else {
                self.stats.forwarded += 1;
                if self.caching && cacheable {
                    self.seen.insert(api.clone());
                }
                match api {
                    ApiCall::LaunchKernel | ApiCall::MemcpyHtoD(_) => self.transport.enqueue(),
                    _ => self.transport.round_trip(),
                }
            };
            self.stats.total_cost += cost;
            cost
        }

        fn burst(&mut self, calls: &[ApiCall]) -> SimSpan {
            calls.iter().map(|c| self.call(c)).sum()
        }
    }

    fn random_call(rng: &mut SmallRng) -> ApiCall {
        let bytes = [0, 1, 4096, 1 << 20][rng.gen_range(0usize..4)];
        match rng.gen_range(0u32..10) {
            0 => ApiCall::LaunchKernel,
            1 => ApiCall::MemcpyHtoD(bytes),
            2 => ApiCall::MemcpyDtoH(bytes),
            3 => ApiCall::StreamSynchronize,
            4 => ApiCall::MemAlloc(bytes),
            5 => ApiCall::RegisterFatbin,
            6 => ApiCall::GetDevice,
            7 => ApiCall::GetDeviceProperties,
            8 => ApiCall::GetLastError,
            _ => ApiCall::ContextQuery,
        }
    }

    #[test]
    fn stub_matches_a_reference_set_model() {
        for case in 0..64u64 {
            let mut rng = SmallRng::seed_from_u64(0xA91 ^ case);
            let transport = if case % 2 == 0 {
                Transport::SharedMemory
            } else {
                Transport::Socket
            };
            let caching = case % 4 < 2;
            let mut stub = if caching {
                ClientStub::new(transport)
            } else {
                ClientStub::without_caching(transport)
            };
            let mut reference = ReferenceStub {
                transport,
                caching,
                seen: BTreeSet::new(),
                stats: InterceptStats::default(),
            };
            for step in 0..rng.gen_range(1usize..200) {
                let (got, want) = match rng.gen_range(0u32..20) {
                    0 => (stub.attach_burst(), reference.burst(&ATTACH_CALLS)),
                    1 => (stub.launch_burst(), reference.burst(&LAUNCH_CALLS)),
                    _ => {
                        let api = random_call(&mut rng);
                        (stub.call(&api), reference.call(&api))
                    }
                };
                assert_eq!(got, want, "case {case}, step {step}: cost");
                assert_eq!(
                    stub.stats(),
                    reference.stats,
                    "case {case}, step {step}: stats"
                );
            }
        }
    }
}
