//! Device-topology graph and migration transfer costs.
//!
//! Migration between devices is not free on real fleets: the client's
//! resident state (weights, gradients, optimizer moments, KV caches) has
//! to cross an interconnect, and the interconnect is not uniform — NVLink
//! within a node, PCIe to the host, Ethernet/InfiniBand between nodes.
//! This module models the fleet as an undirected graph of [`Link`]s with
//! per-link bandwidth and resolves a transfer path between any two
//! devices as the *widest* path — the one maximizing the bottleneck
//! (per-hop minimum) bandwidth, since a bulk state copy is limited by its
//! slowest hop.
//!
//! [`Cluster::topology`](crate::cluster::Cluster::topology) installs a
//! topology; every cross-device migration is then charged
//! [`Topology::transfer_time`] of stall — the destination client does not
//! advance until its state has arrived. The default is
//! [`Topology::flat`], the old free-migration behavior, so existing runs
//! reproduce byte-identically unless a topology is asked for.
//!
//! ```
//! use tally_core::topology::{Link, Topology};
//! use tally_gpu::SimSpan;
//!
//! // Two NVLink pairs bridged by one PCIe hop: 0—1 and 2—3 fast,
//! // 1—2 slow. The 0→3 path is widest through both pairs, but its
//! // bottleneck is the PCIe hop.
//! let topo = Topology::new(4)
//!     .link(0, 1, Link::nvlink())
//!     .link(2, 3, Link::nvlink())
//!     .link(1, 2, Link::pcie());
//! assert_eq!(topo.path_bandwidth(0, 3), Some(Link::pcie().gb_per_s));
//!
//! // A 1.6 GB optimizer state over 16 GB/s stalls the client 100 ms.
//! let stall = topo.transfer_time(1_600_000_000, 0, 3).unwrap();
//! assert_eq!(stall, SimSpan::from_millis(100));
//!
//! // The flat default charges nothing, ever.
//! let free = Topology::flat(4);
//! assert_eq!(free.transfer_time(1_600_000_000, 0, 3), Some(SimSpan::ZERO));
//! ```

use std::collections::BTreeMap;

use tally_gpu::SimSpan;

/// The physical kind of an inter-device link. Purely descriptive — cost
/// resolution uses only [`Link::gb_per_s`] — but surfaced in traces and
/// useful when building presets.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LinkKind {
    /// Direct GPU-to-GPU NVLink.
    NvLink,
    /// PCIe hop (through the host root complex).
    Pcie,
    /// Node boundary (Ethernet / InfiniBand fabric).
    NodeCross,
}

/// One undirected interconnect edge with its sustained bandwidth.
///
/// ```
/// use tally_core::topology::{Link, LinkKind};
///
/// let fast = Link::nvlink();
/// assert_eq!(fast.kind, LinkKind::NvLink);
/// // Presets can be re-rated for older generations.
/// let v2 = Link::nvlink().with_bandwidth(150.0);
/// assert_eq!(v2.gb_per_s, 150.0);
/// ```
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Link {
    /// Physical kind of the link.
    pub kind: LinkKind,
    /// Sustained bandwidth in gigabytes per second.
    pub gb_per_s: f64,
}

impl Link {
    /// NVLink 4.0-class direct link (300 GB/s sustained).
    pub fn nvlink() -> Link {
        Link {
            kind: LinkKind::NvLink,
            gb_per_s: 300.0,
        }
    }

    /// PCIe 4.0 x16-class hop (16 GB/s sustained).
    pub fn pcie() -> Link {
        Link {
            kind: LinkKind::Pcie,
            gb_per_s: 16.0,
        }
    }

    /// Cross-node fabric hop (100 Gb/s ≈ 12.5 GB/s sustained).
    pub fn node_cross() -> Link {
        Link {
            kind: LinkKind::NodeCross,
            gb_per_s: 12.5,
        }
    }

    /// The same kind of link at a different sustained bandwidth.
    pub fn with_bandwidth(mut self, gb_per_s: f64) -> Link {
        self.gb_per_s = gb_per_s;
        self
    }
}

/// An undirected device-interconnect graph with per-link bandwidth.
///
/// Build one with [`Topology::new`] + [`Topology::link`], or use a
/// preset: [`Topology::flat`] (every pair connected at infinite
/// bandwidth — migration costs nothing, the pre-topology behavior and
/// the [`Cluster`](crate::cluster::Cluster) default) or
/// [`Topology::dgx`] (NVLink all-to-all inside 8-GPU nodes, a shared
/// cross-node fabric between nodes).
///
/// Paths are resolved as widest paths: among all routes between two
/// devices, the one whose slowest hop is fastest. A bulk state transfer
/// pipelines through intermediate hops, so the bottleneck link is what
/// bounds it.
#[derive(Clone, Debug)]
pub struct Topology {
    devices: usize,
    flat: bool,
    /// Canonical `(lo, hi)` keys; insertion replaces.
    links: BTreeMap<(usize, usize), Link>,
}

impl Topology {
    /// An empty (no links) topology over `devices` devices. Until links
    /// are added every cross-device pair is unreachable and migration
    /// between them is refused.
    pub fn new(devices: usize) -> Topology {
        Topology {
            devices,
            flat: false,
            links: BTreeMap::new(),
        }
    }

    /// The fully connected free topology: every transfer completes
    /// instantly. This reproduces the pre-topology migration behavior
    /// and is the default for clusters that never call
    /// [`Cluster::topology`](crate::cluster::Cluster::topology).
    pub fn flat(devices: usize) -> Topology {
        Topology {
            devices,
            flat: true,
            links: BTreeMap::new(),
        }
    }

    /// A DGX-style fleet: NVLink all-to-all within each 8-GPU node,
    /// and a cross-node fabric hop between the lead GPUs of adjacent
    /// nodes. With `devices <= 8` this is a single all-NVLink node.
    pub fn dgx(devices: usize) -> Topology {
        let mut t = Topology::new(devices);
        let nodes = devices.div_ceil(8);
        for node in 0..nodes {
            let base = node * 8;
            let end = (base + 8).min(devices);
            for a in base..end {
                for b in (a + 1)..end {
                    t = t.link(a, b, Link::nvlink());
                }
            }
        }
        for node in 1..nodes {
            t = t.link((node - 1) * 8, node * 8, Link::node_cross());
        }
        t
    }

    /// Number of devices the topology spans.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Adds (or replaces) the undirected link between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics on a self-link or an out-of-range device.
    pub fn link(mut self, a: usize, b: usize, link: Link) -> Topology {
        assert!(a != b, "self-link on device {a}");
        assert!(
            a < self.devices && b < self.devices,
            "link {a}-{b} out of range for {} devices",
            self.devices
        );
        assert!(
            link.gb_per_s > 0.0 && link.gb_per_s.is_finite(),
            "link {a}-{b} bandwidth must be positive and finite, got {}",
            link.gb_per_s
        );
        self.links.insert((a.min(b), a.max(b)), link);
        self
    }

    /// The bottleneck bandwidth (GB/s) of the widest path from `from` to
    /// `to`: the route maximizing its per-hop minimum. `None` when no
    /// path exists. Same-device and flat topologies report
    /// `f64::INFINITY` (no transfer needed).
    pub fn path_bandwidth(&self, from: usize, to: usize) -> Option<f64> {
        assert!(
            from < self.devices && to < self.devices,
            "path {from}->{to} out of range for {} devices",
            self.devices
        );
        if from == to || self.flat {
            return Some(f64::INFINITY);
        }
        // Dijkstra with max-min relaxation. Fleets are small (≤ a few
        // hundred devices) and moves are rare, so the dense O(n²) scan
        // beats maintaining a heap.
        let mut width = vec![0.0f64; self.devices];
        let mut done = vec![false; self.devices];
        width[from] = f64::INFINITY;
        loop {
            let mut best = None;
            for d in 0..self.devices {
                if !done[d] && width[d] > 0.0 {
                    if let Some(b) = best {
                        if width[d] > width[b] {
                            best = Some(d);
                        }
                    } else {
                        best = Some(d);
                    }
                }
            }
            let Some(u) = best else { break };
            if u == to {
                return Some(width[u]);
            }
            done[u] = true;
            for (&(a, b), link) in &self.links {
                let v = if a == u {
                    b
                } else if b == u {
                    a
                } else {
                    continue;
                };
                let through = width[u].min(link.gb_per_s);
                if through > width[v] {
                    width[v] = through;
                }
            }
        }
        None
    }

    /// Sim-time to move `bytes` of client state from `from` to `to` over
    /// the widest path: `bytes / bottleneck_bandwidth`. `Some(ZERO)` for
    /// same-device, flat topologies, or zero bytes; `None` when the
    /// devices are disconnected (the move must be refused).
    pub fn transfer_time(&self, bytes: u64, from: usize, to: usize) -> Option<SimSpan> {
        let gb_per_s = self.path_bandwidth(from, to)?;
        if bytes == 0 || gb_per_s.is_infinite() {
            return Some(SimSpan::ZERO);
        }
        // tally-lint: allow(D1-float-schedule) -- sanctioned derivation
        // (ARCHITECTURE rule D1): one division over deterministic inputs,
        // rounded to integral nanoseconds exactly once; no accumulation.
        Some(SimSpan::from_secs_f64(
            bytes as f64 / (gb_per_s * 1_000_000_000.0),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_always_free() {
        let t = Topology::flat(16);
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(t.transfer_time(u64::MAX, a, b), Some(SimSpan::ZERO));
            }
        }
    }

    #[test]
    fn same_device_is_free_even_when_disconnected() {
        let t = Topology::new(2);
        assert_eq!(t.transfer_time(1 << 30, 1, 1), Some(SimSpan::ZERO));
        assert_eq!(t.transfer_time(1 << 30, 0, 1), None);
    }

    #[test]
    fn zero_bytes_cost_nothing_on_a_real_link() {
        let t = Topology::new(2).link(0, 1, Link::pcie());
        assert_eq!(t.transfer_time(0, 0, 1), Some(SimSpan::ZERO));
    }

    #[test]
    fn single_link_bandwidth_math() {
        let t = Topology::new(2).link(0, 1, Link::nvlink());
        // 300 GB over 300 GB/s = 1 s.
        let span = t.transfer_time(300_000_000_000, 0, 1).unwrap();
        assert_eq!(span, SimSpan::from_secs(1));
    }

    #[test]
    fn widest_path_prefers_fast_detour_over_direct_slow_link() {
        // 0—1 direct PCIe, but 0—2—1 is all NVLink.
        let t = Topology::new(3)
            .link(0, 1, Link::pcie())
            .link(0, 2, Link::nvlink())
            .link(2, 1, Link::nvlink());
        assert_eq!(t.path_bandwidth(0, 1), Some(300.0));
    }

    #[test]
    fn bottleneck_is_the_slowest_hop() {
        let t = Topology::new(3)
            .link(0, 1, Link::nvlink())
            .link(1, 2, Link::node_cross());
        assert_eq!(t.path_bandwidth(0, 2), Some(12.5));
        assert_eq!(t.path_bandwidth(2, 0), Some(12.5), "undirected");
    }

    #[test]
    fn dgx_intra_node_is_nvlink_and_cross_node_is_fabric() {
        let t = Topology::dgx(16);
        assert_eq!(t.path_bandwidth(0, 7), Some(300.0));
        assert_eq!(t.path_bandwidth(9, 15), Some(300.0));
        // Any cross-node route funnels through the 12.5 GB/s fabric hop.
        assert_eq!(t.path_bandwidth(3, 12), Some(12.5));
    }

    #[test]
    fn dgx_chain_spans_more_than_two_nodes() {
        let t = Topology::dgx(24);
        assert_eq!(t.path_bandwidth(1, 23), Some(12.5));
    }

    #[test]
    #[should_panic(expected = "self-link")]
    fn self_link_panics() {
        let _ = Topology::new(2).link(1, 1, Link::pcie());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_link_panics() {
        let _ = Topology::new(2).link(0, 2, Link::pcie());
    }
}
