//! The reader facade: runs Gen2 inventory over a simulated scene and emits
//! the tag-report stream RFIPad consumes.
//!
//! This is the simulator's stand-in for an Impinj Speedway R420 driven
//! through the Octane SDK: configure link profile, initial Q, and search
//! mode; point it at an [`rf_sim::Scene`]; get back timestamped
//! `(EPC, phase, RSS, Doppler)` reads whose cadence follows the real MAC
//! (collisions, empties, Q adaptation — and therefore uneven per-tag
//! sampling).

use crate::inventory::{Inventory, InventoryStats, SearchMode};
use crate::link::LinkParams;
use crate::report::{TagReport, FIXED_CARRIER_CHANNEL};
use rand::Rng;
use rf_sim::scene::Scene;
use rf_sim::tags::TagId;
use rf_sim::targets::MovingTarget;
use serde::{Deserialize, Serialize};

/// Reader configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReaderConfig {
    /// Physical-layer profile.
    pub link: LinkParams,
    /// Initial Q exponent for inventory rounds (2^Q slots).
    pub initial_q: u8,
    /// Session search mode.
    pub search: SearchMode,
    /// Antenna port stamped on every report.
    pub antenna_port: u16,
    /// How often (seconds of simulated time) the powered-tag set is
    /// re-evaluated; readability changes on hand-motion time scales
    /// (~10 ms), far slower than slot time (~1 ms).
    pub power_check_interval_s: f64,
}

impl Default for ReaderConfig {
    fn default() -> Self {
        Self {
            link: LinkParams::dense_reader_m4(),
            initial_q: 5,
            search: SearchMode::DualTarget,
            antenna_port: 1,
            power_check_interval_s: 5e-3,
        }
    }
}

/// The result of a reader run: the report stream plus MAC statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReaderRun {
    /// All tag reports in time order.
    pub events: Vec<TagReport>,
    /// Inventory statistics (rounds, collisions, efficiency…).
    pub stats: InventoryStats,
}

impl ReaderRun {
    /// Reads per second across all tags.
    pub fn read_rate_hz(&self, duration_s: f64) -> f64 {
        if duration_s <= 0.0 {
            return 0.0;
        }
        self.events.len() as f64 / duration_s
    }

    /// The reports for one tag, in time order.
    pub fn events_for(&self, tag: TagId) -> Vec<&TagReport> {
        self.events.iter().filter(|e| e.tag == tag).collect()
    }
}

/// A simulated EPC C1G2 reader.
#[derive(Debug, Clone)]
pub struct Gen2Reader {
    config: ReaderConfig,
}

impl Gen2Reader {
    /// Creates a reader with the given configuration.
    pub fn new(config: ReaderConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ReaderConfig {
        &self.config
    }

    /// Runs continuous inventory over `scene` from `start` for `duration`
    /// simulated seconds, with the given moving targets present, and returns
    /// the report stream.
    pub fn run<R: Rng + ?Sized>(
        &self,
        scene: &Scene,
        targets: &[&dyn MovingTarget],
        start: f64,
        duration: f64,
        rng: &mut R,
    ) -> ReaderRun {
        let mut inventory = Inventory::new(
            self.config.link,
            self.config.initial_q,
            self.config.search,
            start,
        );
        // Two phases. The MAC runs first and records when each tag is
        // singulated; the scene is then observed at those instants. The
        // inventory holds the rng while it runs, so observation noise is
        // drawn from it afterwards, in read order.
        //
        // The powered set changes on hand-motion time scales; it is cached
        // and refreshed on the configured interval instead of per slot, and
        // each refresh samples the moving targets once.
        let mut cache_time = f64::NEG_INFINITY;
        let mut cached: Vec<TagId> = Vec::with_capacity(scene.tags().len());
        let interval = self.config.power_check_interval_s;
        let mut read_instants: Vec<(TagId, f64)> = Vec::new();
        inventory.run(
            start + duration,
            rng,
            |t, powered: &mut Vec<TagId>| {
                if t - cache_time >= interval {
                    cache_time = t;
                    scene.readable_into(t, targets, &mut cached);
                }
                powered.extend_from_slice(&cached);
            },
            |id, t| read_instants.push((id, t)),
        );

        let mut events: Vec<TagReport> = Vec::with_capacity(read_instants.len());
        let hopping = scene.config().hopping.as_ref();
        for (id, t) in read_instants {
            if let Some(observation) = scene.observe(id, t, targets, rng) {
                // LLRP ChannelIndex is 1-based under a hopping plan; 0 marks
                // a fixed carrier.
                let channel_index = hopping
                    .map(|plan| plan.index_at(t) as u16 + 1)
                    .unwrap_or(FIXED_CARRIER_CHANNEL);
                events.push(TagReport::from_observation(
                    &observation,
                    self.config.antenna_port,
                    channel_index,
                ));
            }
        }

        let stats = *inventory.stats();
        // Counter updates are batched per run, off the per-slot hot path.
        let metrics = crate::telemetry::reader_metrics();
        metrics.reads.add(events.len() as u64);
        metrics.rounds.add(stats.rounds);
        metrics.slots_empty.add(stats.empties);
        metrics.slots_collision.add(stats.collisions);
        metrics.slots_success.add(stats.successes);
        obs::debug!(
            "reader run complete";
            reads = events.len(),
            rounds = stats.rounds,
            efficiency = format!("{:.3}", stats.efficiency())
        );

        ReaderRun { events, stats }
    }
}

impl Default for Gen2Reader {
    fn default() -> Self {
        Self::new(ReaderConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rf_sim::antenna::ReaderAntenna;
    use rf_sim::environment::Environment;
    use rf_sim::geometry::Vec3;
    use rf_sim::scene::SceneConfig;
    use rf_sim::tags::{TagArray, TagModel};
    use rf_sim::targets::StaticTarget;
    use rf_sim::units::Dbi;

    fn scene() -> Scene {
        let array = TagArray::grid(5, 5, 0.06, Vec3::ZERO, TagModel::TypeB, |id| {
            (id.0 as f64 * 2.39) % std::f64::consts::TAU
        });
        let center = array.center();
        let antenna = ReaderAntenna::new(
            Vec3::new(center.x, center.y, -0.32),
            Vec3::new(0.0, 0.0, 1.0),
            Dbi(8.0),
        );
        Scene::new(
            antenna,
            array.tags().to_vec(),
            Environment::office_location(1),
            SceneConfig::default(),
        )
    }

    #[test]
    fn run_produces_reads_for_every_tag() {
        let reader = Gen2Reader::default();
        let mut rng = StdRng::seed_from_u64(10);
        let run = reader.run(&scene(), &[], 0.0, 2.0, &mut rng);
        let mut seen: Vec<TagId> = run.events.iter().map(|e| e.tag).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 25, "all 25 tags reported");
    }

    #[test]
    fn reports_are_time_ordered_and_stamped() {
        let reader = Gen2Reader::default();
        let mut rng = StdRng::seed_from_u64(11);
        let run = reader.run(&scene(), &[], 0.5, 1.0, &mut rng);
        assert!(!run.events.is_empty());
        for pair in run.events.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        for e in &run.events {
            assert!(e.time >= 0.5);
            assert_eq!(e.antenna_port, 1);
            assert_eq!(e.epc.to_tag(), Some(e.tag));
            assert_eq!(e.channel_index, FIXED_CARRIER_CHANNEL);
        }
    }

    #[test]
    fn read_rate_plausible_for_25_tags() {
        let reader = Gen2Reader::default();
        let mut rng = StdRng::seed_from_u64(12);
        let run = reader.run(&scene(), &[], 0.0, 3.0, &mut rng);
        let rate = run.read_rate_hz(3.0);
        // M=4 with 25 tags: expect on the order of 100–400 reads/s total.
        assert!(rate > 60.0 && rate < 500.0, "rate {rate}");
    }

    #[test]
    fn per_tag_sampling_is_uneven() {
        // The MAC serializes reads, so per-tag inter-read gaps vary — the
        // unevenness RFIPad's framing is designed around.
        let reader = Gen2Reader::default();
        let mut rng = StdRng::seed_from_u64(13);
        let run = reader.run(&scene(), &[], 0.0, 2.0, &mut rng);
        let events = run.events_for(TagId(12));
        assert!(events.len() > 5);
        let gaps: Vec<f64> = events.windows(2).map(|w| w[1].time - w[0].time).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let max = gaps.iter().cloned().fold(0.0, f64::max);
        assert!(max > 1.5 * mean, "gaps too uniform: mean {mean}, max {max}");
    }

    #[test]
    fn hand_presence_still_allows_inventory() {
        let reader = Gen2Reader::default();
        let mut rng = StdRng::seed_from_u64(14);
        let hand = StaticTarget::new(Vec3::new(0.12, -0.12, 0.03), 0.02);
        let run = reader.run(&scene(), &[&hand], 0.0, 1.0, &mut rng);
        assert!(
            run.events.len() > 50,
            "reads with hand: {}",
            run.events.len()
        );
    }

    #[test]
    fn faster_link_reads_more() {
        let mut rng = StdRng::seed_from_u64(15);
        let slow = Gen2Reader::new(ReaderConfig {
            link: LinkParams::dense_reader_m8(),
            ..ReaderConfig::default()
        })
        .run(&scene(), &[], 0.0, 1.0, &mut rng);
        let fast = Gen2Reader::new(ReaderConfig {
            link: LinkParams::fast(),
            ..ReaderConfig::default()
        })
        .run(&scene(), &[], 0.0, 1.0, &mut rng);
        assert!(
            fast.events.len() > 2 * slow.events.len(),
            "fast {} vs slow {}",
            fast.events.len(),
            slow.events.len()
        );
    }

    #[test]
    fn hopping_scene_stamps_llrp_channel_indices() {
        use rf_sim::scene::HoppingPlan;
        let array = TagArray::grid(5, 5, 0.06, Vec3::ZERO, TagModel::TypeB, |id| {
            (id.0 as f64 * 2.39) % std::f64::consts::TAU
        });
        let center = array.center();
        let antenna = ReaderAntenna::new(
            Vec3::new(center.x, center.y, -0.32),
            Vec3::new(0.0, 0.0, 1.0),
            Dbi(8.0),
        );
        let plan = HoppingPlan::fcc();
        let scene = Scene::new(
            antenna,
            array.tags().to_vec(),
            Environment::office_location(1),
            SceneConfig {
                hopping: Some(plan.clone()),
                ..SceneConfig::default()
            },
        );
        let reader = Gen2Reader::default();
        let mut rng = StdRng::seed_from_u64(17);
        let run = reader.run(&scene, &[], 0.0, 1.0, &mut rng);
        assert!(!run.events.is_empty());
        for e in &run.events {
            assert!(e.channel_index >= 1, "hopping indices are 1-based");
            assert_eq!(e.channel_index as usize, plan.index_at(e.time) + 1);
        }
    }

    /// A static target that records every instant the scene samples it.
    struct CountingTarget {
        inner: StaticTarget,
        sampled_at: std::cell::RefCell<Vec<f64>>,
    }

    impl MovingTarget for CountingTarget {
        fn sample(&self, t: f64) -> Option<rf_sim::targets::TargetSample> {
            self.sampled_at.borrow_mut().push(t);
            self.inner.sample(t)
        }
    }

    /// The reader samples each target once per powered-set refresh and
    /// twice per observed read (the read instant and the Doppler step 1 ms
    /// later) — never once per tag per refresh.
    #[test]
    fn targets_are_sampled_once_per_refresh_and_twice_per_read() {
        let counting = |position| CountingTarget {
            inner: StaticTarget::new(position, 0.02),
            sampled_at: std::cell::RefCell::new(Vec::new()),
        };
        // Both targets sit off the plate, so every singulated tag is
        // still powered when observed and each read yields a report.
        let hand = counting(Vec3::new(0.5, 0.3, 0.2));
        let arm = counting(Vec3::new(0.7, 0.5, 0.3));
        let reader = Gen2Reader::default();
        let interval = reader.config().power_check_interval_s;
        let duration = 1.0;
        let mut rng = StdRng::seed_from_u64(18);
        let run = reader.run(&scene(), &[&hand, &arm], 0.0, duration, &mut rng);
        assert!(run.events.len() > 100, "reads: {}", run.events.len());

        for target in [&hand, &arm] {
            let sampled_at = target.sampled_at.borrow();
            // Take away the two samples each observed read accounts for;
            // what remains are the powered-set refreshes.
            let mut counts: std::collections::BTreeMap<u64, u32> = Default::default();
            for t in sampled_at.iter() {
                *counts.entry(t.to_bits()).or_default() += 1;
            }
            for e in &run.events {
                for t in [e.time, e.time + 1e-3] {
                    let count = counts.get_mut(&t.to_bits()).expect("read instant sampled");
                    *count -= 1;
                }
            }
            let refreshes: Vec<f64> = counts
                .iter()
                .filter(|(_, &count)| count > 0)
                .map(|(&bits, &count)| {
                    assert_eq!(count, 1, "{count} samples at one refresh instant");
                    f64::from_bits(bits)
                })
                .collect();
            assert_eq!(
                sampled_at.len(),
                refreshes.len() + 2 * run.events.len(),
                "samples beyond one per refresh and two per read"
            );
            for pair in refreshes.windows(2) {
                assert!(pair[1] - pair[0] >= interval, "refreshes {pair:?}");
            }
            assert!(
                refreshes.len() as f64 > duration / (2.0 * interval),
                "only {} refreshes",
                refreshes.len()
            );
        }
    }

    #[test]
    fn stats_accumulate() {
        let reader = Gen2Reader::default();
        let mut rng = StdRng::seed_from_u64(16);
        let run = reader.run(&scene(), &[], 0.0, 1.0, &mut rng);
        assert!(run.stats.rounds > 0);
        assert_eq!(
            run.stats.slots,
            run.stats.empties + run.stats.collisions + run.stats.successes
        );
    }
}
