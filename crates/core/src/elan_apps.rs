//! Elan comparator benchmark applications: the Elanlib tree barrier
//! (`elan_gsync`) and the hardware barrier (`elan_hgsync`) of the paper's
//! Fig. 7. The chained-RDMA NIC barrier's app is
//! [`ElanContendApp`](crate::contend::ElanContendApp).

use crate::host_app::{BarrierLog, Reentry};
use nicbar_elan::{
    hw_cookie, ElanApi, ElanApp, Gsync, GsyncStep, TportTag, BCAST_TAG, GATHER_TAG, GSYNC_MSG_BYTES,
};
use nicbar_net::NodeId;
use std::sync::Arc;

/// Elanlib `elan_gsync()` benchmark app: host-driven tree gather-broadcast.
pub struct ElanGsyncApp {
    gsync: Gsync,
    /// Rank → node placement (the tree is built in rank space), shared by
    /// every rank of the group.
    members: Arc<[NodeId]>,
    iters: u64,
    skew_us: f64,
    /// Measurements.
    pub log: BarrierLog,
}

impl ElanGsyncApp {
    /// Run `iters` consecutive `elan_gsync` barriers for `rank` of the
    /// group placed on `members` (rank order), with a `degree`-ary tree.
    /// Pass every rank a clone of one `Arc` to keep the build linear in
    /// the group size.
    pub fn new(
        rank: usize,
        members: impl Into<Arc<[NodeId]>>,
        degree: usize,
        iters: u64,
        skew_us: f64,
    ) -> Self {
        let members = members.into();
        ElanGsyncApp {
            gsync: Gsync::new(rank, members.len(), degree),
            members,
            iters,
            skew_us,
            log: BarrierLog::with_capacity(iters),
        }
    }

    fn enter(&mut self, api: &mut ElanApi<'_>) {
        let step = self.gsync.begin();
        self.issue(api, step);
    }

    fn issue(&mut self, api: &mut ElanApi<'_>, step: GsyncStep) {
        for s in step.sends {
            // Gsync speaks in ranks; translate to the physical placement.
            api.tport_send(self.members[s.dst.0], s.tag, GSYNC_MSG_BYTES);
        }
        if !step.done {
            return;
        }
        match self
            .log
            .complete(api.now(), self.iters, self.skew_us, api.rng())
        {
            Reentry::Now => self.enter(api),
            Reentry::After(delay) => api.set_timer(delay),
            Reentry::Stop => {}
        }
    }
}

impl ElanApp for ElanGsyncApp {
    fn on_start(&mut self, api: &mut ElanApi<'_>) {
        self.enter(api);
    }

    fn on_recv(&mut self, api: &mut ElanApi<'_>, _src: NodeId, tag: TportTag, _len: u32) {
        let step = if tag == GATHER_TAG {
            self.gsync.on_gather()
        } else {
            assert_eq!(tag, BCAST_TAG, "unexpected tport tag");
            self.gsync.on_bcast()
        };
        self.issue(api, step);
    }

    fn on_coll_done(&mut self, _api: &mut ElanApi<'_>, cookie: u64) {
        panic!("gsync app got a NIC completion (cookie {cookie:#x})");
    }

    fn on_timer(&mut self, api: &mut ElanApi<'_>) {
        self.enter(api);
    }
}

/// Hardware barrier (`elan_hgsync` fast path) benchmark app.
pub struct ElanHwBarrierApp {
    iters: u64,
    skew_us: f64,
    /// Measurements.
    pub log: BarrierLog,
}

impl ElanHwBarrierApp {
    /// Run `iters` consecutive hardware barriers.
    pub fn new(iters: u64, skew_us: f64) -> Self {
        ElanHwBarrierApp {
            iters,
            skew_us,
            log: BarrierLog::with_capacity(iters),
        }
    }
}

impl ElanApp for ElanHwBarrierApp {
    fn on_start(&mut self, api: &mut ElanApi<'_>) {
        api.hw_sync();
    }

    fn on_coll_done(&mut self, api: &mut ElanApi<'_>, cookie: u64) {
        assert_eq!(cookie, hw_cookie(self.log.done()), "hw epochs out of order");
        match self
            .log
            .complete(api.now(), self.iters, self.skew_us, api.rng())
        {
            Reentry::Now => api.hw_sync(),
            Reentry::After(delay) => api.set_timer(delay),
            Reentry::Stop => {}
        }
    }

    fn on_timer(&mut self, api: &mut ElanApi<'_>) {
        api.hw_sync();
    }
}
