//! Synthetic packet-trace generation.
//!
//! The paper drives its evaluation with two traces captured between a campus
//! network and AWS EC2 (Trace1: 3.8 M packets / 1.7 K connections, median
//! 368 B; Trace2: 6.4 M packets / 199 K connections, median 1434 B). Those
//! traces are proprietary, so this module generates synthetic traces with the
//! same *structural* properties the evaluation depends on:
//!
//! * a configurable number of client hosts talking to a set of servers,
//! * full TCP connection life cycles (SYN, SYN-ACK or RST, data in both
//!   directions, FIN) so connection-tracking NFs exercise every code path,
//! * a packet-size distribution with a configurable median,
//! * an application-protocol mix including SSH/FTP/IRC flows and injectable
//!   Trojan signatures (for the chain-wide ordering experiment, R4),
//! * a fraction of "scanner" hosts whose connection attempts mostly fail
//!   (for the portscan-detector experiments), and
//! * arrival timestamps derived from a target offered load in Gbps, so load
//!   levels like "30 %" and "50 %" of a 10 Gbps link are reproducible.
//!
//! Generation is fully deterministic given [`TraceConfig::seed`].

use crate::{AppProtocol, Direction, FiveTuple, FtpTransferKind, Packet, PacketId, TcpFlags};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

/// Configuration of the synthetic trace generator.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// RNG seed; identical seeds produce identical traces.
    pub seed: u64,
    /// Number of TCP connections to generate.
    pub connections: usize,
    /// Mean number of data packets per connection (geometric-ish spread).
    pub mean_packets_per_connection: usize,
    /// Number of distinct client (campus-side) hosts.
    pub client_hosts: usize,
    /// Number of distinct server (EC2-side) hosts.
    pub server_hosts: usize,
    /// Median packet size in bytes (Trace1 ≈ 368, Trace2 ≈ 1434).
    pub median_packet_size: u32,
    /// Offered load in Gbps used to space arrivals (10.0 = full 10 G link).
    pub offered_load_gbps: f64,
    /// Fraction of connection attempts that are refused (RST to the SYN).
    pub refused_fraction: f64,
    /// Fraction of client hosts that behave like port scanners
    /// (high connection-attempt rate, most attempts refused).
    pub scanner_host_fraction: f64,
    /// Number of Trojan signatures (SSH → FTP html/zip/exe → IRC, per host)
    /// to interleave into the trace (the paper injects 11).
    pub trojan_signatures: usize,
    /// Fraction of benign SSH/FTP/IRC traffic (exercises the Trojan detector
    /// without matching the full signature).
    pub trojan_background_fraction: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            seed: 42,
            connections: 2_000,
            mean_packets_per_connection: 16,
            client_hosts: 64,
            server_hosts: 16,
            median_packet_size: 1434,
            offered_load_gbps: 10.0,
            refused_fraction: 0.05,
            scanner_host_fraction: 0.0,
            trojan_signatures: 0,
            trojan_background_fraction: 0.02,
        }
    }
}

impl TraceConfig {
    /// A small trace suitable for unit tests (a few thousand packets).
    pub fn small(seed: u64) -> TraceConfig {
        TraceConfig {
            seed,
            connections: 200,
            mean_packets_per_connection: 8,
            ..Default::default()
        }
    }

    /// A configuration that mimics the structure of the paper's Trace2
    /// (199 K connections, median 1434 B), scaled by `scale` in (0, 1].
    pub fn trace2_like(scale: f64) -> TraceConfig {
        let scale = scale.clamp(1e-4, 1.0);
        TraceConfig {
            seed: 2,
            connections: ((199_000.0 * scale) as usize).max(10),
            mean_packets_per_connection: 32,
            client_hosts: ((2_000.0 * scale) as usize).max(8),
            server_hosts: 64,
            median_packet_size: 1434,
            offered_load_gbps: 10.0,
            ..Default::default()
        }
    }

    /// Set the offered load as a fraction of a 10 Gbps link (the paper's
    /// "30 % load" / "50 % load" experiments).
    pub fn with_load_fraction(mut self, fraction: f64) -> TraceConfig {
        self.offered_load_gbps = 10.0 * fraction;
        self
    }

    /// Enable scanner hosts (portscan-detector experiments).
    pub fn with_scanners(mut self, fraction: f64) -> TraceConfig {
        self.scanner_host_fraction = fraction;
        self
    }

    /// Inject `n` Trojan signatures (chain-ordering experiment, R4).
    pub fn with_trojans(mut self, n: usize) -> TraceConfig {
        self.trojan_signatures = n;
        self
    }
}

/// A generated trace: packets ordered by arrival time.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Packets in arrival order (arrival_ns is non-decreasing).
    pub packets: Vec<Packet>,
    /// The hosts that carry an injected Trojan signature, in injection order.
    pub trojan_hosts: Vec<Ipv4Addr>,
    /// The hosts generated as port scanners.
    pub scanner_hosts: Vec<Ipv4Addr>,
}

impl Trace {
    /// Number of packets in the trace.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True if the trace holds no packets.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Iterate over the packets in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &Packet> {
        self.packets.iter()
    }

    /// Compute summary statistics.
    pub fn stats(&self) -> TraceStats {
        let mut sizes: Vec<u32> = self.packets.iter().map(|p| p.len).collect();
        sizes.sort_unstable();
        let median = sizes.get(sizes.len() / 2).copied().unwrap_or(0);
        let total_bytes: u64 = self.packets.iter().map(|p| p.len as u64).sum();
        let mut conns = std::collections::HashSet::new();
        for p in &self.packets {
            conns.insert(p.connection_key());
        }
        let duration_ns = self
            .packets
            .last()
            .map(|p| p.arrival_ns.saturating_sub(self.packets[0].arrival_ns))
            .unwrap_or(0);
        TraceStats {
            packets: self.packets.len(),
            connections: conns.len(),
            total_bytes,
            median_packet_size: median,
            duration_ns,
        }
    }
}

/// Summary statistics of a trace (mirrors how the paper describes its traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Number of packets.
    pub packets: usize,
    /// Number of distinct connections.
    pub connections: usize,
    /// Total bytes carried.
    pub total_bytes: u64,
    /// Median packet size in bytes.
    pub median_packet_size: u32,
    /// Time between first and last arrival, in nanoseconds.
    pub duration_ns: u64,
}

/// One connection to be expanded into packets.
#[derive(Debug, Clone)]
struct ConnSpec {
    tuple: FiveTuple,
    app: AppProtocol,
    data_packets: usize,
    refused: bool,
}

/// Deterministic synthetic trace generator. See the module documentation.
#[derive(Debug)]
pub struct TraceGenerator {
    cfg: TraceConfig,
    rng: StdRng,
    next_id: u64,
    now_ns: u64,
    /// mean gap between packets given the offered load and size distribution.
    mean_gap_ns: f64,
}

impl TraceGenerator {
    /// Create a generator from a configuration.
    pub fn new(cfg: TraceConfig) -> TraceGenerator {
        let rng = StdRng::seed_from_u64(cfg.seed);
        // bits per packet / bits per ns  = ns per packet
        let bits_per_pkt = (cfg.median_packet_size as f64) * 8.0;
        let gbps = cfg.offered_load_gbps.max(0.01);
        let mean_gap_ns = bits_per_pkt / gbps; // gbps == bits per ns
        TraceGenerator {
            cfg,
            rng,
            next_id: 0,
            now_ns: 0,
            mean_gap_ns,
        }
    }

    /// Generate the full trace.
    pub fn generate(mut self) -> Trace {
        let clients: Vec<Ipv4Addr> = (0..self.cfg.client_hosts.max(1))
            .map(|i| client_ip(i as u32))
            .collect();
        let servers: Vec<Ipv4Addr> = (0..self.cfg.server_hosts.max(1))
            .map(|i| server_ip(i as u32))
            .collect();

        let n_scanners = ((clients.len() as f64) * self.cfg.scanner_host_fraction).round() as usize;
        let scanner_hosts: Vec<Ipv4Addr> = clients.iter().take(n_scanners).copied().collect();

        // Build connection specs first, then interleave their packets.
        let mut specs: Vec<ConnSpec> = Vec::with_capacity(self.cfg.connections);
        for _ in 0..self.cfg.connections {
            let client = clients[self.rng.gen_range(0..clients.len())];
            let server = servers[self.rng.gen_range(0..servers.len())];
            let scanner = scanner_hosts.contains(&client);
            let app = self.pick_app();
            let refused = if scanner {
                self.rng.gen_bool(0.8)
            } else {
                self.rng.gen_bool(self.cfg.refused_fraction)
            };
            let data_packets = if refused {
                0
            } else {
                1 + self
                    .rng
                    .gen_range(0..self.cfg.mean_packets_per_connection.max(1) * 2)
            };
            let src_port = self.rng.gen_range(10_000..60_000);
            let tuple = FiveTuple::tcp(client, src_port, server, app.default_port());
            specs.push(ConnSpec {
                tuple,
                app,
                data_packets,
                refused,
            });
        }

        // Expand specs into per-connection packet lists.
        let per_conn: Vec<Vec<Packet>> = specs.iter().map(|s| self.expand(s)).collect();

        // Interleave the per-connection lists in a round-robin weighted by
        // remaining length, which yields realistic interleaving of many
        // concurrent connections while remaining deterministic.
        let mut interleaved: Vec<Packet> = Vec::new();
        let mut cursors = vec![0usize; per_conn.len()];
        let mut live: Vec<usize> = (0..per_conn.len()).collect();
        while !live.is_empty() {
            let pick = self.rng.gen_range(0..live.len());
            let conn = live[pick];
            let cursor = cursors[conn];
            interleaved.push(per_conn[conn][cursor].clone());
            cursors[conn] += 1;
            if cursors[conn] >= per_conn[conn].len() {
                live.swap_remove(pick);
            }
        }

        // Inject Trojan signatures at evenly spaced points (the paper adds the
        // signature at 11 different points in its trace).
        let mut trojan_hosts = Vec::new();
        if self.cfg.trojan_signatures > 0 {
            let n = self.cfg.trojan_signatures;
            let spacing = (interleaved.len() / (n + 1)).max(1);
            let mut insert_at: Vec<usize> = (1..=n).map(|i| i * spacing).collect();
            // Insert from the back so earlier indices stay valid.
            insert_at.reverse();
            for (i, pos) in insert_at.into_iter().enumerate() {
                let host = trojan_ip(i as u32);
                trojan_hosts.push(host);
                let server = servers[self.rng.gen_range(0..servers.len())];
                let sig = self.trojan_signature(host, server);
                let pos = pos.min(interleaved.len());
                interleaved.splice(pos..pos, sig);
            }
            trojan_hosts.reverse();
        }

        // Assign ids and arrival timestamps in final order.
        let mut packets = interleaved;
        for p in packets.iter_mut() {
            p.id = PacketId(self.next_id);
            self.next_id += 1;
            let jitter = self.rng.gen_range(0.5..1.5);
            self.now_ns += (self.mean_gap_ns * jitter) as u64;
            p.arrival_ns = self.now_ns;
        }

        Trace {
            packets,
            trojan_hosts,
            scanner_hosts,
        }
    }

    fn pick_app(&mut self) -> AppProtocol {
        let r: f64 = self.rng.gen();
        if r < self.cfg.trojan_background_fraction {
            // benign SSH/FTP/IRC traffic
            match self.rng.gen_range(0..3) {
                0 => AppProtocol::Ssh,
                1 => AppProtocol::Ftp(FtpTransferKind::Other),
                _ => AppProtocol::Irc,
            }
        } else if r < 0.85 {
            AppProtocol::Http
        } else if r < 0.92 {
            AppProtocol::Dns
        } else {
            AppProtocol::Other
        }
    }

    /// Expand a connection spec into its packets (no ids/timestamps yet).
    fn expand(&mut self, spec: &ConnSpec) -> Vec<Packet> {
        let mut pkts = Vec::new();
        let fwd = spec.tuple;
        let rev = spec.tuple.reversed();
        let small = 64u32;
        // SYN
        pkts.push(
            Packet::builder()
                .tuple(fwd)
                .direction(Direction::FromInitiator)
                .flags(TcpFlags::SYN)
                .len(small)
                .app(spec.app)
                .build(),
        );
        if spec.refused {
            // RST from the responder; connection never established.
            pkts.push(
                Packet::builder()
                    .tuple(rev)
                    .direction(Direction::FromResponder)
                    .flags(TcpFlags::RST)
                    .len(small)
                    .app(spec.app)
                    .build(),
            );
            return pkts;
        }
        // SYN-ACK, ACK
        pkts.push(
            Packet::builder()
                .tuple(rev)
                .direction(Direction::FromResponder)
                .flags(TcpFlags::SYN_ACK)
                .len(small)
                .app(spec.app)
                .build(),
        );
        pkts.push(
            Packet::builder()
                .tuple(fwd)
                .direction(Direction::FromInitiator)
                .flags(TcpFlags::ACK)
                .len(small)
                .app(spec.app)
                .build(),
        );
        // Data packets, mostly server->client for downloads.
        for _ in 0..spec.data_packets {
            let from_server = self.rng.gen_bool(0.7);
            let size = self.sample_size();
            let (tuple, dir) = if from_server {
                (rev, Direction::FromResponder)
            } else {
                (fwd, Direction::FromInitiator)
            };
            pkts.push(
                Packet::builder()
                    .tuple(tuple)
                    .direction(dir)
                    .flags(TcpFlags::ACK | TcpFlags::PSH)
                    .len(size)
                    .app(spec.app)
                    .build(),
            );
        }
        // FIN from the initiator, FIN-ACK back.
        pkts.push(
            Packet::builder()
                .tuple(fwd)
                .direction(Direction::FromInitiator)
                .flags(TcpFlags::FIN | TcpFlags::ACK)
                .len(small)
                .app(spec.app)
                .build(),
        );
        pkts.push(
            Packet::builder()
                .tuple(rev)
                .direction(Direction::FromResponder)
                .flags(TcpFlags::FIN | TcpFlags::ACK)
                .len(small)
                .app(spec.app)
                .build(),
        );
        pkts
    }

    /// Sample a packet size with the configured median: a bimodal mix of
    /// small control packets and near-MTU data packets, tuned so the median
    /// matches `median_packet_size`.
    fn sample_size(&mut self) -> u32 {
        let median = self.cfg.median_packet_size;
        if median >= 1000 {
            // mostly full-size packets
            if self.rng.gen_bool(0.8) {
                self.rng
                    .gen_range(median.saturating_sub(100)..=1500.min(median + 66))
            } else {
                self.rng.gen_range(64..600)
            }
        } else {
            // mostly small packets
            if self.rng.gen_bool(0.8) {
                self.rng.gen_range(64..=median + 200)
            } else {
                self.rng.gen_range(1000..1500)
            }
        }
    }

    /// Build the packets of one Trojan signature for `host`:
    /// SSH connection, FTP downloads of HTML/ZIP/EXE, then IRC activity —
    /// in exactly that order (the order is what the detector keys on).
    fn trojan_signature(&mut self, host: Ipv4Addr, server: Ipv4Addr) -> Vec<Packet> {
        let mut pkts = Vec::new();
        let mini_conn = |gen: &mut Self, app: AppProtocol, data: usize| {
            let sport = gen.rng.gen_range(10_000..60_000);
            let spec = ConnSpec {
                tuple: FiveTuple::tcp(host, sport, server, app.default_port()),
                app,
                data_packets: data,
                refused: false,
            };
            gen.expand(&spec)
        };
        pkts.extend(mini_conn(self, AppProtocol::Ssh, 4));
        pkts.extend(mini_conn(self, AppProtocol::Ftp(FtpTransferKind::Html), 3));
        pkts.extend(mini_conn(self, AppProtocol::Ftp(FtpTransferKind::Zip), 3));
        pkts.extend(mini_conn(self, AppProtocol::Ftp(FtpTransferKind::Exe), 3));
        pkts.extend(mini_conn(self, AppProtocol::Irc, 5));
        pkts
    }
}

/// Campus-side client address (10.1.x.y).
pub fn client_ip(i: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, 1, ((i >> 8) & 0xff) as u8, (i & 0xff) as u8)
}

/// EC2-side server address (54.0.x.y).
pub fn server_ip(i: u32) -> Ipv4Addr {
    Ipv4Addr::new(54, 0, ((i >> 8) & 0xff) as u8, (i & 0xff) as u8)
}

/// Address of the i-th injected Trojan host (10.66.x.y), disjoint from the
/// normal client range so experiments can identify them unambiguously.
pub fn trojan_ip(i: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, 66, ((i >> 8) & 0xff) as u8, (i & 0xff) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = TraceGenerator::new(TraceConfig::small(7)).generate();
        let b = TraceGenerator::new(TraceConfig::small(7)).generate();
        assert_eq!(a.packets, b.packets);
        let c = TraceGenerator::new(TraceConfig::small(8)).generate();
        assert_ne!(a.packets, c.packets);
    }

    #[test]
    fn arrivals_monotonic_and_ids_sequential() {
        let t = TraceGenerator::new(TraceConfig::small(1)).generate();
        assert!(!t.is_empty());
        for (i, w) in t.packets.windows(2).enumerate() {
            assert!(
                w[0].arrival_ns <= w[1].arrival_ns,
                "arrival order violated at {i}"
            );
        }
        for (i, p) in t.packets.iter().enumerate() {
            assert_eq!(p.id.0, i as u64);
        }
    }

    #[test]
    fn median_size_tracks_config() {
        let big = TraceGenerator::new(TraceConfig {
            median_packet_size: 1434,
            ..TraceConfig::small(3)
        })
        .generate()
        .stats();
        let small = TraceGenerator::new(TraceConfig {
            median_packet_size: 368,
            ..TraceConfig::small(3)
        })
        .generate()
        .stats();
        assert!(big.median_packet_size > small.median_packet_size);
    }

    #[test]
    fn connection_count_close_to_config() {
        let cfg = TraceConfig::small(5);
        let want = cfg.connections;
        let stats = TraceGenerator::new(cfg).generate().stats();
        // Each spec creates exactly one connection; trojans add a handful more.
        assert!(stats.connections >= want, "{} < {want}", stats.connections);
        assert!(stats.connections <= want + 16);
    }

    #[test]
    fn trojan_signatures_present_and_ordered() {
        let cfg = TraceConfig::small(9).with_trojans(3);
        let t = TraceGenerator::new(cfg).generate();
        assert_eq!(t.trojan_hosts.len(), 3);
        for host in &t.trojan_hosts {
            // For each trojan host the SSH conn must precede the FTP EXE
            // transfer which must precede IRC.
            let mut ssh = None;
            let mut exe = None;
            let mut irc = None;
            for (i, p) in t.packets.iter().enumerate() {
                if p.initiator() != *host {
                    continue;
                }
                match p.app {
                    AppProtocol::Ssh if ssh.is_none() => ssh = Some(i),
                    AppProtocol::Ftp(FtpTransferKind::Exe) if exe.is_none() => exe = Some(i),
                    AppProtocol::Irc if irc.is_none() => irc = Some(i),
                    _ => {}
                }
            }
            let (s, e, i) = (ssh.unwrap(), exe.unwrap(), irc.unwrap());
            assert!(s < e && e < i, "signature order broken: {s} {e} {i}");
        }
    }

    #[test]
    fn scanner_hosts_mostly_refused() {
        let cfg = TraceConfig {
            connections: 400,
            ..TraceConfig::small(11)
        }
        .with_scanners(0.25);
        let t = TraceGenerator::new(cfg).generate();
        assert!(!t.scanner_hosts.is_empty());
        let mut refused = 0usize;
        let mut attempts = 0usize;
        for p in &t.packets {
            if t.scanner_hosts.contains(&p.initiator()) {
                if p.is_connection_attempt() {
                    attempts += 1;
                }
                if p.flags.rst() {
                    refused += 1;
                }
            }
        }
        assert!(attempts > 0);
        assert!(
            refused as f64 >= attempts as f64 * 0.5,
            "{refused}/{attempts}"
        );
    }

    #[test]
    fn load_fraction_scales_arrival_rate() {
        let full = TraceGenerator::new(TraceConfig::small(13).with_load_fraction(1.0))
            .generate()
            .stats();
        let half = TraceGenerator::new(TraceConfig::small(13).with_load_fraction(0.5))
            .generate()
            .stats();
        // Same packets, half the load => roughly double the duration.
        assert_eq!(half.total_bytes, full.total_bytes);
        assert!(half.duration_ns > full.duration_ns * 3 / 2);
    }

    #[test]
    fn trace2_like_scales() {
        let t = TraceGenerator::new(TraceConfig::trace2_like(0.001)).generate();
        let s = t.stats();
        assert!(s.connections >= 150, "got {}", s.connections);
        assert!(s.median_packet_size > 1000);
    }
}
