//! Property tests on HeMem's page tracker: under arbitrary sample
//! streams, every placed page is on exactly one queue (or legitimately
//! in flight), counters never underflow, pop/restore round-trips
//! conserve pages, and a reset tracker behaves exactly like a new one.

use proptest::prelude::*;

use hemem_core::hemem::{
    PageTracker, Queue, RegionConfig, RegionStats, TrackerConfig, TrackerStats,
};
use hemem_sim::Ns;
use hemem_vmm::{PageId, RegionId, Tier};

#[derive(Debug, Clone)]
enum Op {
    Record { page: u64, write: bool, at_ms: u64 },
    MarkHot { page: u64, wh: bool },
    MarkCold { page: u64 },
    PopPromotion,
    PopDemotion { allow_hot: bool },
    Replace { page: u64, tier_dram: bool },
}

fn op_strategy(pages: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..pages, any::<bool>(), 0u64..60_000).prop_map(|(page, write, at_ms)| Op::Record {
            page,
            write,
            at_ms
        }),
        (0..pages, any::<bool>()).prop_map(|(page, wh)| Op::MarkHot { page, wh }),
        (0..pages).prop_map(|page| Op::MarkCold { page }),
        Just(Op::PopPromotion),
        any::<bool>().prop_map(|allow_hot| Op::PopDemotion { allow_hot }),
        (0..pages, any::<bool>()).prop_map(|(page, tier_dram)| Op::Replace { page, tier_dram }),
    ]
}

const PAGES: u64 = 48;

fn queue_total(t: &PageTracker) -> usize {
    t.queue_len(Queue::DramHot)
        + t.queue_len(Queue::DramCold)
        + t.queue_len(Queue::NvmHot)
        + t.queue_len(Queue::NvmCold)
}

/// Tracks `PAGES` pages of `region`, alternately placed on DRAM and NVM.
fn add_placed(t: &mut PageTracker, region: RegionId) {
    t.add_region(region, PAGES);
    for i in 0..PAGES {
        t.placed(
            PageId { region, index: i },
            if i % 2 == 0 { Tier::Dram } else { Tier::Nvm },
        );
    }
}

/// What one op observably produced: the page it popped, if any, then
/// the tracker's counters, queue lengths and cooling clock.
type Outcome = (
    Option<PageId>,
    TrackerStats,
    Option<RegionStats>,
    [usize; 4],
    u64,
);

/// Applies `op` to pages of `region`. With region tracking on, the pops
/// go through the span indexes, each promotion after a region period.
fn apply(t: &mut PageTracker, region: RegionId, op: &Op) -> Outcome {
    let page = |index| PageId { region, index };
    let popped = match *op {
        Op::Record {
            page: p,
            write,
            at_ms,
        } => {
            t.record(page(p), write, Ns::millis(at_ms));
            None
        }
        Op::MarkHot { page: p, wh } => {
            t.mark_hot(page(p), wh);
            None
        }
        Op::MarkCold { page: p } => {
            t.mark_cold(page(p));
            None
        }
        Op::PopPromotion if t.regions_enabled() => {
            t.begin_region_period();
            t.pop_region_promotion()
        }
        Op::PopPromotion => t.pop_promotion(),
        Op::PopDemotion { allow_hot } if t.regions_enabled() => t.pop_region_demotion(allow_hot),
        Op::PopDemotion { allow_hot } => t.pop_demotion(allow_hot),
        Op::Replace { page: p, tier_dram } => {
            t.placed(page(p), if tier_dram { Tier::Dram } else { Tier::Nvm });
            None
        }
    };
    let queues = [
        Queue::DramHot,
        Queue::DramCold,
        Queue::NvmHot,
        Queue::NvmCold,
    ]
    .map(|q| t.queue_len(q));
    (popped, *t.stats(), t.region_stats(), queues, t.cool_clock())
}

proptest! {
    #[test]
    fn tracker_conserves_pages(ops in prop::collection::vec(op_strategy(PAGES), 1..300)) {
        let region = RegionId(0);
        let mut t = PageTracker::new(TrackerConfig::default());
        t.add_region(region, PAGES);
        for i in 0..PAGES {
            t.placed(PageId { region, index: i }, if i % 2 == 0 { Tier::Dram } else { Tier::Nvm });
        }
        let mut popped: Vec<PageId> = Vec::new();
        for op in ops {
            match op {
                Op::Record { page, write, at_ms } => {
                    t.record(PageId { region, index: page }, write, Ns::millis(at_ms));
                }
                Op::MarkHot { page, wh } => t.mark_hot(PageId { region, index: page }, wh),
                Op::MarkCold { page } => t.mark_cold(PageId { region, index: page }),
                Op::PopPromotion => {
                    if let Some(p) = t.pop_promotion() {
                        popped.push(p);
                    }
                }
                Op::PopDemotion { allow_hot } => {
                    if let Some(p) = t.pop_demotion(allow_hot) {
                        popped.push(p);
                    }
                }
                Op::Replace { page, tier_dram } => {
                    // Simulate migration completion / abort restore.
                    let p = PageId { region, index: page };
                    if let Some(pos) = popped.iter().position(|&q| q == p) {
                        popped.remove(pos);
                        t.placed(p, if tier_dram { Tier::Dram } else { Tier::Nvm });
                    }
                }
            }
            // Conservation: queued + in-flight == total, always. (Record /
            // mark operations on in-flight pages must not re-queue them...
            // they may, which is why `placed` unlinks first; either way the
            // total never exceeds PAGES.)
            let total = queue_total(&t) + popped.len();
            prop_assert!(total >= PAGES as usize, "lost pages: {total}");
            prop_assert!(queue_total(&t) <= PAGES as usize, "duplicated pages");
        }
        // Drain everything back and verify exact conservation.
        for p in popped.drain(..) {
            t.placed(p, Tier::Dram);
        }
        prop_assert_eq!(queue_total(&t), PAGES as usize);
    }

    #[test]
    fn counters_never_underflow_and_cooling_halves(
        samples in prop::collection::vec((0u64..8, any::<bool>()), 1..500)
    ) {
        let region = RegionId(1);
        let mut t = PageTracker::new(TrackerConfig {
            cooling_min_interval: Ns::ZERO,
            ..TrackerConfig::default()
        });
        t.add_region(region, 8);
        for i in 0..8 {
            t.placed(PageId { region, index: i }, Tier::Nvm);
        }
        for (i, (page, write)) in samples.into_iter().enumerate() {
            t.record(PageId { region, index: page }, write, Ns::millis(i as u64));
            let (r, w) = t.counters(PageId { region, index: page });
            // Counters bounded by the cooling threshold + one increment.
            prop_assert!(r + w <= 18 + 1, "counters ran away: {r}+{w}");
        }
    }

    /// A tracker reset after an arbitrary history equals a new one, and
    /// every op applied to both afterwards produces the same result,
    /// with region tracking on and off.
    #[test]
    fn reset_tracker_matches_a_new_one(
        history in prop::collection::vec(op_strategy(PAGES), 0..200),
        ops in prop::collection::vec(op_strategy(PAGES), 1..200),
    ) {
        for enabled in [false, true] {
            let cfg = TrackerConfig {
                regions: RegionConfig { enabled, max_span: 16, ..RegionConfig::default() },
                ..TrackerConfig::default()
            };
            let mut reset = PageTracker::new(cfg);
            add_placed(&mut reset, RegionId(0));
            add_placed(&mut reset, RegionId(1));
            for op in &history {
                apply(&mut reset, RegionId(0), op);
            }
            reset.reset();
            let mut fresh = PageTracker::new(cfg);
            prop_assert_eq!(&reset, &fresh);
            add_placed(&mut reset, RegionId(0));
            add_placed(&mut fresh, RegionId(0));
            for op in &ops {
                prop_assert_eq!(apply(&mut reset, RegionId(0), op), apply(&mut fresh, RegionId(0), op));
            }
        }
    }
}
