//! Flow accounting: the AP's fast-path/slow-path split (§2.1).
//!
//! "Elements within the Click modular router on the fast path handle ...
//! application classification and usage for each MAC address. Other
//! specific types of traffic are processed along the slow path, such as
//! ARP, DHCP, DNS, multicast DNS, TCP SYN/FIN, packets containing HTTP
//! headers, and packets containing SSL handshakes."
//!
//! [`FlowTable`] reproduces that design: the first packets of a flow ride
//! the slow path, where metadata is extracted and the rule engine runs
//! once; every later packet is a fast-path counter bump against the cached
//! classification. TCP FIN retires the entry, and
//! the table is bounded — eviction picks the least-recently-used flow, a
//! real constraint on 64 MB devices.
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use airstat_stats::BuildFixedHasher;

use crate::apps::{Application, FlowMetadata, RuleSet};
use crate::mac::MacAddress;

/// Identifies one transport flow at the AP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// The client's MAC (flows are accounted per client, §2.1).
    pub client: MacAddress,
    /// Flow id within the client (hash of the 5-tuple in a real AP).
    pub flow_id: u64,
}

/// Direction of one packet relative to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client to network.
    Up,
    /// Network to client.
    Down,
}

/// Which processing path handled a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Punted to the Click router for metadata extraction.
    Slow,
    /// Counted in the cached flow entry.
    Fast,
}

#[derive(Debug, Clone)]
struct FlowEntry {
    app: Application,
    up_bytes: u64,
    down_bytes: u64,
    last_seen: u64,
    finished: bool,
}

/// Per-client, per-application byte totals after flow retirement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppUsage {
    /// Upstream bytes.
    pub up_bytes: u64,
    /// Downstream bytes.
    pub down_bytes: u64,
}

/// One retired usage row: the `(client, application)` key and its totals.
type UsageRow = ((MacAddress, Application), AppUsage);

/// The bounded flow-accounting table.
#[derive(Debug)]
pub struct FlowTable {
    ruleset: Arc<RuleSet>,
    capacity: usize,
    // airstat::allow(no-hashmap-iter): keyed access on the per-packet hot
    // path; the only scans are flush's drain, a per-key sum into the
    // key-sorted `usage`, and evict_lru's minimum, tie-broken on FlowKey
    flows: HashMap<FlowKey, FlowEntry, BuildFixedHasher>,
    /// Retired rows, sorted by key. A `Vec`, so harvesting or resetting
    /// the table keeps the storage for the next interval.
    usage: Vec<UsageRow>,
    slow_path_packets: u64,
    fast_path_packets: u64,
    evictions: u64,
}

impl FlowTable {
    /// Creates a table classifying with `ruleset`, holding at most
    /// `capacity` concurrent flows.
    ///
    /// The ruleset is shared: many tables (one per simulated AP, say) can
    /// classify against one `Arc` without copying the rule data.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(ruleset: Arc<RuleSet>, capacity: usize) -> Self {
        assert!(capacity > 0, "flow table capacity must be > 0");
        FlowTable {
            ruleset,
            capacity,
            // airstat::allow(no-hashmap-iter): constructor for the field justified above
            flows: HashMap::default(),
            usage: Vec::new(),
            slow_path_packets: 0,
            fast_path_packets: 0,
            evictions: 0,
        }
    }

    /// Opens a flow: the TCP SYN / first UDP datagram rides the slow path,
    /// metadata is inspected and the classification cached.
    ///
    /// Reopening a live key reclassifies it (new connection reusing an
    /// ephemeral port).
    pub fn open(&mut self, key: FlowKey, metadata: &FlowMetadata, now: u64) -> Application {
        self.admit(key, metadata, now).app
    }

    /// The slow path proper: classify, make room, cache the entry. One map
    /// probe while the table has room; a full table checks for the key
    /// first, because only a *new* key evicts and the victim is chosen
    /// before the newcomer is in the map.
    fn admit(&mut self, key: FlowKey, metadata: &FlowMetadata, now: u64) -> &mut FlowEntry {
        self.slow_path_packets += 1;
        if self.flows.len() >= self.capacity && !self.flows.contains_key(&key) {
            self.evict_lru();
        }
        let fresh = FlowEntry {
            app: self.ruleset.classify(metadata),
            up_bytes: 0,
            down_bytes: 0,
            last_seen: now,
            finished: false,
        };
        match self.flows.entry(key) {
            Entry::Occupied(slot) => {
                let entry = slot.into_mut();
                *entry = fresh;
                entry
            }
            Entry::Vacant(slot) => slot.insert(fresh),
        }
    }

    /// Accounts one data packet. Packets for unknown flows (table
    /// eviction, reboot) are re-punted to the slow path and counted
    /// against the miscellaneous buckets by transport.
    pub fn packet(
        &mut self,
        key: FlowKey,
        direction: Direction,
        bytes: u64,
        fallback: &FlowMetadata,
        now: u64,
    ) -> Path {
        if let Some(entry) = self.flows.get_mut(&key) {
            Self::bump(entry, direction, bytes, now);
            self.fast_path_packets += 1;
            return Path::Fast;
        }
        // Mid-flow packet with no entry: classify from what little the
        // packet shows (ports/transport only in practice).
        let entry = self.admit(key, fallback, now);
        Self::bump(entry, direction, bytes, now);
        Path::Slow
    }

    fn bump(entry: &mut FlowEntry, direction: Direction, bytes: u64, now: u64) {
        match direction {
            Direction::Up => entry.up_bytes += bytes,
            Direction::Down => entry.down_bytes += bytes,
        }
        entry.last_seen = now;
    }

    /// Marks a flow finished (TCP FIN/RST on the slow path) and retires it
    /// into the per-client usage counters.
    pub fn finish(&mut self, key: FlowKey, now: u64) {
        self.slow_path_packets += 1;
        if let Some(mut entry) = self.flows.remove(&key) {
            entry.last_seen = now;
            entry.finished = true;
            Self::retire(&mut self.usage, key.client, &entry);
        }
    }

    /// Flushes everything (device poll: counters are harvested): retires
    /// every live flow and drains the rows in `(mac, app)` order. The
    /// table is empty for the next harvest interval whether or not the
    /// rows are read to the end.
    pub fn flush(&mut self) -> std::vec::Drain<'_, ((MacAddress, Application), AppUsage)> {
        // Retiring is a commutative sum per key, so the map's order is
        // not observable here.
        for (key, entry) in self.flows.drain() {
            Self::retire(&mut self.usage, key.client, &entry);
        }
        self.usage.drain(..)
    }

    /// Adds a retired flow's bytes to its `(client, app)` row of `usage`.
    fn retire(usage: &mut Vec<UsageRow>, client: MacAddress, entry: &FlowEntry) {
        let key = (client, entry.app);
        let at = match usage.binary_search_by_key(&key, |row| row.0) {
            Ok(at) => at,
            Err(at) => {
                usage.insert(at, (key, AppUsage::default()));
                at
            }
        };
        let slot = &mut usage[at].1;
        slot.up_bytes += entry.up_bytes;
        slot.down_bytes += entry.down_bytes;
    }

    fn evict_lru(&mut self) {
        // Tie-break equal `last_seen` stamps on the key: `min_by_key` over
        // a HashMap otherwise picks whichever tied flow hashes first, and
        // which flow gets evicted decides whose bytes land in the
        // misc-repunt buckets — a byte-identity leak across processes.
        if let Some((&key, _)) = self.flows.iter().min_by_key(|(&k, e)| (e.last_seen, k)) {
            let entry = self
                .flows
                .remove(&key)
                .expect("invariant: key collected from this map above");
            Self::retire(&mut self.usage, key.client, &entry);
            self.evictions += 1;
        }
    }

    /// Returns the table to its freshly-created state (device reboot /
    /// reuse for the next client) while keeping the map allocations warm.
    ///
    /// Unlike [`FlowTable::flush`] this *discards* any unretired flow
    /// bytes and zeroes every counter.
    pub fn reset(&mut self) {
        self.flows.clear();
        self.usage.clear();
        self.slow_path_packets = 0;
        self.fast_path_packets = 0;
        self.evictions = 0;
    }

    /// `(evictions, slow-path packets, fast-path packets, live flows)`:
    /// flows evicted for capacity, packets per path, and the flows open
    /// now.
    pub fn flow_counters(&self) -> (u64, u64, u64, usize) {
        (
            self.evictions,
            self.slow_path_packets,
            self.fast_path_packets,
            self.flows.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::FlowMetadata;

    fn mac(n: u8) -> MacAddress {
        MacAddress::new([0, 0, 0, 0, 0, n])
    }

    fn key(client: u8, flow: u64) -> FlowKey {
        FlowKey {
            client: mac(client),
            flow_id: flow,
        }
    }

    fn table(capacity: usize) -> FlowTable {
        FlowTable::new(Arc::new(RuleSet::standard_2015()), capacity)
    }

    #[test]
    fn slow_then_fast_path() {
        let mut t = table(16);
        let metadata = FlowMetadata::https("movies.netflix.com");
        let app = t.open(key(1, 1), &metadata, 0);
        assert_eq!(app, Application::Netflix);
        // Subsequent packets are fast path.
        for i in 0..10 {
            let path = t.packet(key(1, 1), Direction::Down, 1500, &metadata, i);
            assert_eq!(path, Path::Fast);
        }
        assert_eq!(t.fast_path_packets, 10);
        assert_eq!(t.slow_path_packets, 1);
        // FIN retires the flow into the usage counters.
        t.finish(key(1, 1), 11);
        assert_eq!(t.flows.len(), 0);
        let usage: Vec<_> = t.flush().collect();
        assert_eq!(usage.len(), 1);
        assert_eq!(usage[0].0, (mac(1), Application::Netflix));
        assert_eq!(usage[0].1.down_bytes, 15_000);
    }

    #[test]
    fn directions_accounted_separately() {
        let mut t = table(16);
        let m = FlowMetadata::https("client.dropbox.com");
        t.open(key(1, 1), &m, 0);
        t.packet(key(1, 1), Direction::Up, 600, &m, 1);
        t.packet(key(1, 1), Direction::Down, 400, &m, 2);
        t.finish(key(1, 1), 3);
        let usage: Vec<_> = t.flush().collect();
        assert_eq!(usage[0].1.up_bytes, 600);
        assert_eq!(usage[0].1.down_bytes, 400);
    }

    #[test]
    fn capacity_evicts_lru_without_losing_bytes() {
        let mut t = table(2);
        let m = FlowMetadata::http("site1.example.com");
        t.open(key(1, 1), &m, 0);
        t.packet(key(1, 1), Direction::Down, 500, &m, 1);
        t.open(key(1, 2), &m, 2);
        t.open(key(1, 3), &m, 3); // evicts flow 1 (LRU)
        assert_eq!(t.evictions, 1);
        assert_eq!(t.flows.len(), 2);
        // Flow 1's bytes survived retirement.
        let usage: Vec<_> = t.flush().collect();
        let total: u64 = usage.iter().map(|(_, u)| u.down_bytes).sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn capacity_two_eviction_sequence_and_counters_are_pinned() {
        // Victims and counters captured on the two-probe `contains_key` +
        // `insert`/`get_mut` implementation; the single-probe rewrite must
        // evict the same flows at the same steps.
        let live = |t: &FlowTable| {
            let mut keys: Vec<u64> = t.flows.keys().map(|k| k.flow_id).collect();
            keys.sort_unstable();
            keys
        };
        let mut t = table(2);
        let web = FlowMetadata::http("site1.example.com");
        let netflix = FlowMetadata::https("movies.netflix.com");
        let bare = FlowMetadata::tcp(443);
        t.open(key(1, 1), &web, 0);
        t.open(key(1, 2), &netflix, 0);
        // Reopening a live key at capacity replaces it in place.
        t.open(key(1, 2), &netflix, 1);
        assert_eq!((t.evictions, live(&t)), (0, vec![1, 2]));
        // A new key at capacity evicts the least recently used flow.
        t.open(key(1, 3), &web, 2);
        assert_eq!((t.evictions, live(&t)), (1, vec![2, 3]));
        // A mid-flow packet for the evicted flow re-punts and evicts in turn.
        assert_eq!(
            t.packet(key(1, 1), Direction::Down, 100, &bare, 3),
            Path::Slow
        );
        assert_eq!((t.evictions, live(&t)), (2, vec![1, 3]));
        assert_eq!(t.packet(key(1, 3), Direction::Up, 10, &web, 4), Path::Fast);
        assert_eq!(
            t.packet(key(1, 2), Direction::Down, 7, &bare, 5),
            Path::Slow
        );
        assert_eq!((t.evictions, live(&t)), (3, vec![2, 3]));
        // Equal `last_seen` stamps tie-break on the key.
        t.packet(key(1, 3), Direction::Up, 1, &web, 5);
        t.open(key(1, 4), &netflix, 6);
        assert_eq!((t.evictions, live(&t)), (4, vec![3, 4]));
        t.finish(key(1, 4), 7);
        assert_eq!(
            (t.slow_path_packets, t.fast_path_packets, t.evictions),
            (8, 2, 4)
        );
        let usage: Vec<(Application, u64, u64)> = t
            .flush()
            .map(|((_, app), u)| (app, u.up_bytes, u.down_bytes))
            .collect();
        assert_eq!(
            usage,
            vec![
                (Application::MiscWeb, 11, 0),
                // Evicted before it carried a byte: the row still exists.
                (Application::Netflix, 0, 0),
                (Application::EncryptedTcp, 0, 107),
            ]
        );
    }

    #[test]
    fn mid_flow_packet_without_entry_repunts() {
        let mut t = table(16);
        let fallback = FlowMetadata::tcp(443);
        let path = t.packet(key(1, 9), Direction::Down, 1000, &fallback, 0);
        assert_eq!(path, Path::Slow);
        let usage: Vec<_> = t.flush().collect();
        // Only transport-level evidence: lands in the encrypted bucket.
        assert_eq!(usage[0].0 .1, Application::EncryptedTcp);
        assert_eq!(usage[0].1.down_bytes, 1000);
    }

    #[test]
    fn per_client_per_app_rollup() {
        let mut t = table(16);
        let netflix = FlowMetadata::https("movies.netflix.com");
        let web = FlowMetadata::http("blah.example.org");
        // Two Netflix flows from the same client merge.
        t.open(key(1, 1), &netflix, 0);
        t.packet(key(1, 1), Direction::Down, 100, &netflix, 1);
        t.open(key(1, 2), &netflix, 2);
        t.packet(key(1, 2), Direction::Down, 200, &netflix, 3);
        // A different client's web flow stays separate.
        t.open(key(2, 1), &web, 4);
        t.packet(key(2, 1), Direction::Down, 50, &web, 5);
        let usage: Vec<_> = t.flush().collect();
        assert_eq!(usage.len(), 2);
        let netflix_row = usage
            .iter()
            .find(|((m, a), _)| *m == mac(1) && *a == Application::Netflix)
            .unwrap();
        assert_eq!(netflix_row.1.down_bytes, 300);
    }

    #[test]
    fn reset_clears_rollups_and_counters() {
        let mut t = table(16);
        let m = FlowMetadata::https("movies.netflix.com");
        t.open(key(1, 1), &m, 0);
        t.packet(key(1, 1), Direction::Down, 1500, &m, 1);
        t.finish(key(1, 1), 2);
        t.open(key(2, 7), &m, 3); // still live at reset time
        assert!(!t.flows.is_empty());
        assert!(t.slow_path_packets > 0);
        t.reset();
        assert_eq!(t.flows.len(), 0);
        assert_eq!(t.slow_path_packets, 0);
        assert_eq!(t.fast_path_packets, 0);
        assert_eq!(t.evictions, 0);
        assert_eq!(t.flush().count(), 0, "reset discards retired usage too");
        // The table is fully usable afterwards.
        let app = t.open(key(3, 1), &m, 10);
        assert_eq!(app, Application::Netflix);
        t.packet(key(3, 1), Direction::Up, 200, &m, 11);
        t.finish(key(3, 1), 12);
        assert_eq!(t.flush().count(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be > 0")]
    fn zero_capacity_rejected() {
        let _ = table(0);
    }
}
