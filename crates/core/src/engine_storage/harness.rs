//! Co-simulated storage pod: one frontend host, one SSD host, one pool.

use oasis_cxl::pool::{PortId, TrafficClass};
use oasis_cxl::{CxlPool, HostCtx, RegionAllocator};
use oasis_sim::time::SimTime;
use oasis_storage::ssd::{Ssd, SsdConfig};

use oasis_storage::command::NvmeCommand;

use crate::config::OasisConfig;
use crate::datapath::{alloc_descriptor_channel, BufferArea};

use super::{StorageBackend, StorageFrontend};

/// A minimal two-host storage pod for tests and benchmarks: instances on
/// host 0 reach an SSD attached to host 1 through the storage engine.
pub struct StoragePod {
    /// Shared pool.
    pub pool: CxlPool,
    /// Frontend driver (host 0).
    pub frontend: StorageFrontend,
    /// Backend driver (host 1).
    pub backend: StorageBackend,
    /// The SSD on host 1.
    pub ssd: Ssd,
}

impl StoragePod {
    /// Build the pod. `data_buf_size` bounds the largest single I/O.
    pub fn new(cfg: OasisConfig, ssd_cfg: SsdConfig, data_buf_size: u64) -> Self {
        let mut pool = CxlPool::new(32 << 20, 2);
        let mut ra = RegionAllocator::new(&pool);
        let data_region = ra.alloc(
            &mut pool,
            "storage.fe0.data",
            data_buf_size * 64,
            TrafficClass::Payload,
        );
        let cmd = alloc_descriptor_channel::<NvmeCommand>(&mut pool, &mut ra, "fe0->be0.cmd", 1024);
        let cpl = alloc_descriptor_channel::<NvmeCommand>(&mut pool, &mut ra, "be0->fe0.cpl", 1024);

        let mut frontend = StorageFrontend::new(
            0,
            HostCtx::new(PortId(0), 0),
            cfg.clone(),
            BufferArea::new(data_region, data_buf_size),
        );
        frontend.add_device_link(0, cmd.sender, cpl.receiver);

        let mut backend = StorageBackend::new(0, 1, HostCtx::new(PortId(1), 0), cfg);
        backend.add_frontend_link(0, cpl.sender, cmd.receiver);

        StoragePod {
            pool,
            frontend,
            backend,
            ssd: Ssd::new(ssd_cfg),
        }
    }

    /// Co-simulate until both cores pass `until`.
    pub fn run(&mut self, until: SimTime) {
        loop {
            let fe = self.frontend.core.clock;
            let be = self.backend.core.clock;
            if fe >= until && be >= until {
                break;
            }
            if fe <= be && fe < until {
                self.frontend.step(&mut self.pool);
            } else {
                self.backend.step(&mut self.pool, &mut self.ssd);
            }
        }
    }

    /// Run until `n` completions have arrived (with a simulated-time cap).
    pub fn run_until_completions(&mut self, n: usize, cap: SimTime) -> Vec<super::IoResult> {
        let mut out = Vec::new();
        while out.len() < n {
            assert!(
                self.frontend.core.clock < cap,
                "storage pod stalled waiting for completions ({}/{n})",
                out.len()
            );
            let next = self.frontend.core.clock.max(self.backend.core.clock)
                + oasis_sim::time::SimDuration::from_micros(5);
            self.run(next);
            out.extend(self.frontend.take_completions());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_storage::command::NvmeStatus;
    use oasis_storage::BLOCK_SIZE;

    fn pod() -> StoragePod {
        StoragePod::new(OasisConfig::default(), SsdConfig::default(), 8 * BLOCK_SIZE)
    }

    #[test]
    fn write_then_read_roundtrip_across_hosts() {
        let mut p = pod();
        let data: Vec<u8> = (0..BLOCK_SIZE as usize).map(|i| (i % 251) as u8).collect();
        let wcid = p
            .frontend
            .submit_write(&mut p.pool, 0, 10, &data)
            .expect("write accepted");
        let done = p.run_until_completions(1, SimTime::from_millis(50));
        assert_eq!(done[0].cid, wcid);
        assert!(done[0].status.is_ok());

        let rcid = p
            .frontend
            .submit_read(&mut p.pool, 0, 10, 1)
            .expect("read accepted");
        let done = p.run_until_completions(1, SimTime::from_millis(100));
        assert_eq!(done[0].cid, rcid);
        assert!(done[0].status.is_ok());
        assert_eq!(done[0].data.as_deref(), Some(&data[..]));
    }

    #[test]
    fn read_latency_dominated_by_flash_not_engine() {
        // §3.4 rationale: engine overhead is single-digit us against ~100us
        // SSD latency.
        let mut p = pod();
        p.frontend.submit_read(&mut p.pool, 0, 0, 1).unwrap();
        let t0 = p.frontend.core.clock;
        let _ = p.run_until_completions(1, SimTime::from_millis(50));
        let latency = p.frontend.core.clock - t0;
        let flash = p.ssd.config().read_latency_ns;
        assert!(
            latency.as_nanos() < flash + 30_000,
            "engine added too much: {latency} vs flash {flash}ns"
        );
        assert!(latency.as_nanos() >= flash);
    }

    #[test]
    fn failed_drive_propagates_error_to_guest() {
        let mut p = pod();
        p.ssd.set_failed(true);
        p.frontend.submit_read(&mut p.pool, 0, 0, 1).unwrap();
        let done = p.run_until_completions(1, SimTime::from_millis(50));
        assert_eq!(done[0].status, NvmeStatus::DeviceFailure);
        assert_eq!(p.frontend.stats.errors, 1);
        // After repair, I/O works again.
        p.ssd.set_failed(false);
        p.frontend.submit_read(&mut p.pool, 0, 0, 1).unwrap();
        let done = p.run_until_completions(1, SimTime::from_millis(100));
        assert!(done[0].status.is_ok());
    }

    #[test]
    fn flush_and_out_of_range() {
        let mut p = pod();
        p.frontend.submit_flush(&mut p.pool, 0).unwrap();
        let done = p.run_until_completions(1, SimTime::from_millis(50));
        assert!(done[0].status.is_ok());

        let blocks = p.ssd.config().blocks_per_ns;
        p.frontend.submit_read(&mut p.pool, 0, blocks, 1).unwrap();
        let done = p.run_until_completions(1, SimTime::from_millis(50));
        assert_eq!(done[0].status, NvmeStatus::LbaOutOfRange);
    }

    #[test]
    fn pipelined_ios_share_flash_parallelism() {
        let mut p = pod();
        for i in 0..8 {
            p.frontend.submit_read(&mut p.pool, 0, i, 1).unwrap();
        }
        let t0 = p.frontend.core.clock;
        let done = p.run_until_completions(8, SimTime::from_millis(200));
        assert_eq!(done.len(), 8);
        let elapsed = (p.frontend.core.clock - t0).as_nanos();
        // 8 reads across 8 channels complete in ~1 flash latency, not 8.
        assert!(
            elapsed < 3 * p.ssd.config().read_latency_ns,
            "no parallelism: {elapsed}ns"
        );
    }

    #[test]
    fn buffer_exhaustion_refuses_cleanly() {
        let mut p = StoragePod::new(
            OasisConfig::default(),
            SsdConfig::default(),
            BLOCK_SIZE, // 64 one-block buffers
        );
        let mut accepted = 0;
        for i in 0..200 {
            if p.frontend.submit_read(&mut p.pool, 0, i % 16, 1).is_some() {
                accepted += 1;
            }
        }
        assert!(accepted <= 64);
        assert!(p.frontend.stats.refused > 0);
        // Everything accepted still completes.
        let done = p.run_until_completions(accepted, SimTime::from_millis(500));
        assert_eq!(done.len(), accepted);
    }
}
