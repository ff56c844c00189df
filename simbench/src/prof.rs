//! Host-time spans for the traced run.
//!
//! A [`Profile`] keeps a stack of open spans and charges each layer its
//! self time: the span's duration minus the time of the spans nested in
//! it. [`Timed`] wraps a backend and opens a span around each hot hook
//! the runtime calls; the twins open the runtime-side spans themselves
//! with [`timed`]. Spans only read the host clock, so a traced run
//! drives exactly the simulation an untraced one does.

use std::time::Instant;

use hemem_core::audit::AuditViolation;
use hemem_core::backend::{SegmentAccess, TickOutput, TierSplit, TieredBackend};
use hemem_core::fleet::FleetStats;
use hemem_core::machine::MachineCore;
use hemem_core::runtime::Sim;
use hemem_memdev::Pattern;
use hemem_pebs::SampleRecord;
use hemem_sim::{Histogram, Ns};
use hemem_vmm::{PageId, RegionId, TenantId, Tier};

/// A layer host time is attributed to, named by the module it lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The driver loop's own work: batch building, stream hashing,
    /// latency probes, and runtime calls no other layer wraps.
    Driver,
    /// `Sim::step` and `Sim::run_until`: queue pops and internal dispatch.
    Step,
    /// `Sim::submit_batch`: the access path.
    SubmitBatch,
    /// `Sim::fault_page`: first-touch faults.
    FaultPage,
    /// `HeMem::tick`: the policy pass.
    Tick,
    /// `HeMem::on_samples`: PEBS sample ingest.
    OnSamples,
    /// `HeMem::split`: per-segment tier split on the access path.
    Split,
    /// `HeMem::place`: first-touch placement.
    Place,
    /// `HeMem::placed`: placement bookkeeping.
    Placed,
    /// `HeMem::migration_done`: migration completion bookkeeping.
    MigrationDone,
    /// `HeMem::admit_tenant`: fleet admission.
    AdmitTenant,
    /// `Sim::run_audit`: the end-of-run invariant audit.
    Audit,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 12] = [
        Layer::Driver,
        Layer::Step,
        Layer::SubmitBatch,
        Layer::FaultPage,
        Layer::Tick,
        Layer::OnSamples,
        Layer::Split,
        Layer::Place,
        Layer::Placed,
        Layer::MigrationDone,
        Layer::AdmitTenant,
        Layer::Audit,
    ];

    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Driver => "workloads.driver",
            Layer::Step => "runtime.step",
            Layer::SubmitBatch => "runtime.submit_batch",
            Layer::FaultPage => "runtime.fault_page",
            Layer::Tick => "hemem.tick",
            Layer::OnSamples => "hemem.on_samples",
            Layer::Split => "hemem.split",
            Layer::Place => "hemem.place",
            Layer::Placed => "hemem.placed",
            Layer::MigrationDone => "hemem.migration_done",
            Layer::AdmitTenant => "hemem.admit_tenant",
            Layer::Audit => "audit.run_audit",
        }
    }
}

/// Aggregated spans of one layer.
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    /// Spans closed.
    pub calls: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Per-call self time, ns.
    pub hist: Histogram,
}

struct Open {
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

/// Span stack plus per-layer aggregates.
#[derive(Default)]
pub struct Profile {
    stack: Vec<Open>,
    layers: [LayerStats; Layer::ALL.len()],
    /// Workload events `Sim::step` returned to the driver.
    pub events: u64,
}

impl Profile {
    /// Opens a span of `layer` nested in the innermost open span.
    pub fn enter(&mut self, layer: Layer) {
        self.stack.push(Open {
            layer,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Closes the innermost span and charges its self time.
    pub fn exit(&mut self) {
        let open = self
            .stack
            .pop()
            .expect("span exit without a matching enter");
        let total = open.start.elapsed().as_nanos() as u64;
        let own = total.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += total;
        }
        let s = &mut self.layers[open.layer as usize];
        s.calls += 1;
        s.self_ns += own;
        s.hist.record(own);
    }

    /// Aggregates of `layer`.
    pub fn layer(&self, layer: Layer) -> &LayerStats {
        &self.layers[layer as usize]
    }

    /// Summed self time over every layer, ns.
    pub fn self_ns(&self) -> u64 {
        self.layers.iter().map(|l| l.self_ns).sum()
    }

    /// Adds `other`'s closed spans to this profile.
    pub fn merge(&mut self, other: &Profile) {
        assert!(other.stack.is_empty(), "merging a profile with open spans");
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.calls += b.calls;
            a.self_ns += b.self_ns;
            a.hist.merge(&b.hist);
        }
        self.events += other.events;
    }
}

/// Runs `f` on `sim` inside a span of `layer`.
pub fn timed<B: TieredBackend, R>(
    sim: &mut Sim<Timed<B>>,
    layer: Layer,
    f: impl FnOnce(&mut Sim<Timed<B>>) -> R,
) -> R {
    sim.backend.prof.enter(layer);
    let r = f(sim);
    sim.backend.prof.exit();
    r
}

/// A backend that forwards every hook to `inner`, timing the hot ones.
pub struct Timed<B> {
    /// The backend under test.
    pub inner: B,
    /// Spans recorded so far.
    pub prof: Profile,
}

impl<B> Timed<B> {
    /// Wraps `inner`, recording into `prof`.
    pub fn new(inner: B, prof: Profile) -> Timed<B> {
        Timed { inner, prof }
    }

    fn span<R>(&mut self, layer: Layer, f: impl FnOnce(&mut B) -> R) -> R {
        self.prof.enter(layer);
        let r = f(&mut self.inner);
        self.prof.exit();
        r
    }
}

impl<B: TieredBackend> TieredBackend for Timed<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn wants_to_manage(&self, len: u64) -> bool {
        self.inner.wants_to_manage(len)
    }

    fn on_mmap(&mut self, m: &mut MachineCore, region: RegionId) {
        self.inner.on_mmap(m, region)
    }

    fn on_munmap(&mut self, m: &mut MachineCore, region: RegionId) {
        self.inner.on_munmap(m, region)
    }

    fn place(&mut self, m: &mut MachineCore, page: PageId, is_write: bool) -> Tier {
        self.span(Layer::Place, |b| b.place(m, page, is_write))
    }

    fn placed(&mut self, m: &mut MachineCore, page: PageId, tier: Tier) {
        self.span(Layer::Placed, |b| b.placed(m, page, tier))
    }

    fn split(
        &mut self,
        m: &mut MachineCore,
        seg: &SegmentAccess,
        object_size: u32,
        pattern: Pattern,
        reads: f64,
        writes: f64,
    ) -> TierSplit {
        self.span(Layer::Split, |b| {
            b.split(m, seg, object_size, pattern, reads, writes)
        })
    }

    fn uses_pebs(&self) -> bool {
        self.inner.uses_pebs()
    }

    fn on_samples(&mut self, m: &mut MachineCore, samples: &[SampleRecord], now: Ns) {
        self.span(Layer::OnSamples, |b| b.on_samples(m, samples, now))
    }

    fn tick(&mut self, m: &mut MachineCore, now: Ns) -> TickOutput {
        self.span(Layer::Tick, |b| b.tick(m, now))
    }

    fn migration_done(&mut self, m: &mut MachineCore, page: PageId, dst: Tier) {
        self.span(Layer::MigrationDone, |b| b.migration_done(m, page, dst))
    }

    fn migration_aborted(&mut self, m: &mut MachineCore, page: PageId, current: Tier) {
        self.inner.migration_aborted(m, page, current)
    }

    fn swapped_out(&mut self, m: &mut MachineCore, page: PageId) {
        self.inner.swapped_out(m, page)
    }

    fn reclaim_victim(&mut self, m: &mut MachineCore) -> Option<PageId> {
        self.inner.reclaim_victim(m)
    }

    fn background_threads(&self) -> u32 {
        self.inner.background_threads()
    }

    fn recover(&mut self, m: &mut MachineCore, now: Ns) {
        self.inner.recover(m, now)
    }

    fn audit(&self, m: &MachineCore) -> Vec<AuditViolation> {
        self.inner.audit(m)
    }

    fn tenant_killed(&mut self, m: &mut MachineCore, tenant: TenantId, now: Ns) {
        self.inner.tenant_killed(m, tenant, now)
    }

    fn tenant_drained(&mut self, m: &mut MachineCore, tenant: TenantId, now: Ns) {
        self.inner.tenant_drained(m, tenant, now)
    }

    fn fleet_stats(&self) -> Option<FleetStats> {
        self.inner.fleet_stats()
    }

    fn evacuation_dst(&mut self, m: &mut MachineCore, page: PageId, from: Tier) -> Option<Tier> {
        self.inner.evacuation_dst(m, page, from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_charge_self_time_only() {
        let mut p = Profile::default();
        p.enter(Layer::Driver);
        p.enter(Layer::Step);
        std::thread::sleep(std::time::Duration::from_millis(20));
        p.exit();
        p.exit();
        let (outer, inner) = (p.layer(Layer::Driver), p.layer(Layer::Step));
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.self_ns >= 20_000_000, "inner {}", inner.self_ns);
        assert!(
            outer.self_ns < inner.self_ns,
            "outer self {} must exclude the nested {}",
            outer.self_ns,
            inner.self_ns
        );
        assert_eq!(p.self_ns(), outer.self_ns + inner.self_ns);
    }
}
