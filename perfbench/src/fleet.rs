//! Seeded inputs: streams of the simulator's `SimRng`, the
//! Minneapolis–St Paul box the workloads place nodes and users in, and
//! the live_discover fleet.

use armada_sim::SimRng;
use armada_types::{GeoPoint, NodeClass};
use armada_wire::WireNodeStatus;

/// One seeded stream per purpose: `SimRng`'s stream of the workload
/// seed for `salt`, so streams never overlap.
#[derive(Debug, Clone)]
pub struct Rng(SimRng);

impl Rng {
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(SimRng::seed_from(seed).stream_indexed("perfbench", salt))
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.0.uniform(0.0, 1.0)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        self.0.uniform(lo, hi)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`
    /// events per second, in seconds.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// A uniform point in the metro box.
    pub fn metro_point(&mut self) -> GeoPoint {
        GeoPoint::new(
            self.range(METRO_LAT.0, METRO_LAT.1),
            self.range(METRO_LON.0, METRO_LON.1),
        )
    }
}

/// Latitude span of the Minneapolis–St Paul box.
const METRO_LAT: (f64, f64) = (44.85, 45.10);
/// Longitude span of the Minneapolis–St Paul box.
const METRO_LON: (f64, f64) = (-93.45, -92.95);

/// Nodes registered with each live_discover shard.
pub const FLEET: usize = 10_000;

/// Id of the `index`-th node owned by `shard`; shard fleets never
/// overlap.
pub fn node_id(shard: u64, index: usize) -> u64 {
    shard * 1_000_000 + index as u64
}

/// Shard `shard`'s registered fleet for `seed`: statuses plus the
/// advertised listen address (never dialled; it only gives summaries
/// and candidate lists their real size).
pub fn fleet(seed: u64, shard: u64) -> Vec<(WireNodeStatus, String)> {
    let mut rng = Rng::new(seed, 0xF1EE_7000 + shard);
    (0..FLEET)
        .map(|i| {
            let status = WireNodeStatus {
                id: node_id(shard, i),
                class: if i % 4 == 0 {
                    NodeClass::Dedicated
                } else {
                    NodeClass::Volunteer
                },
                location: rng.metro_point(),
                attached_users: rng.below(8),
                load_score: rng.range(0.0, 1.0),
            };
            let listen = format!("10.{}.{}.{}:7{:03}", shard, i / 250, i % 250, i % 1000);
            (status, listen)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fleet() {
        assert_eq!(fleet(7, 0), fleet(7, 0));
        assert_ne!(fleet(7, 0)[0].0, fleet(8, 0)[0].0);
    }

    #[test]
    fn shard_fleets_are_disjoint_and_in_the_box() {
        let a = fleet(1, 0);
        let b = fleet(1, 1);
        assert_eq!(a.len(), FLEET);
        assert!(a.iter().all(|(s, _)| s.id < 1_000_000));
        assert!(b.iter().all(|(s, _)| s.id >= 1_000_000));
        for (s, _) in a.iter().chain(&b) {
            let (lat, lon) = (s.location.lat(), s.location.lon());
            assert!((METRO_LAT.0..METRO_LAT.1).contains(&lat));
            assert!((METRO_LON.0..METRO_LON.1).contains(&lon));
        }
    }

    #[test]
    fn unit_stays_in_range() {
        let mut rng = Rng::new(3, 4);
        for _ in 0..10_000 {
            let x = rng.unit();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
