//! Bandwidth/latency-modeled block storage devices.
//!
//! Table 3 of the paper compares checkpoint methods whose cost is dominated
//! by where the checkpoint bytes go: HDD (~100 MB/s), SSD (~500 MB/s), or
//! memory. The two disks BLCR writes to are modeled here; the in-memory
//! methods keep their bytes in node SHM instead. The devices *really
//! store* the bytes (so BLCR-style recovery actually restores data) and
//! additionally report the modeled transfer time so experiments can
//! charge realistic I/O cost without wall-clock sleeping. A device
//! knows no [`EventBus`](crate::EventBus): the job that charges a
//! transfer (`skt-ftsim`'s BLCR baseline) emits the `StorageWrite` /
//! `StorageRead` event for it on its cluster's bus.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::time::Duration;

/// Device technology, with the paper-calibrated default speeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Spinning disk: ~100 MB/s sequential, ~8 ms seek.
    Hdd,
    /// SATA/NVMe flash: ~500 MB/s, ~0.1 ms.
    Ssd,
}

impl DeviceKind {
    /// Default sequential bandwidth in bytes/second.
    pub fn bandwidth(self) -> f64 {
        match self {
            DeviceKind::Hdd => 100.0e6,
            DeviceKind::Ssd => 500.0e6,
        }
    }

    /// Default access latency in seconds.
    pub fn latency(self) -> f64 {
        match self {
            DeviceKind::Hdd => 8.0e-3,
            DeviceKind::Ssd => 1.0e-4,
        }
    }

    /// Canonical lowercase name, used as the `device` field of storage
    /// [`Event`](crate::Event)s.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::Hdd => "hdd",
            DeviceKind::Ssd => "ssd",
        }
    }
}

/// A block store holding named blobs, with a transfer-time model.
pub struct Device {
    kind: DeviceKind,
    blobs: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl Device {
    /// An empty device of `kind`, at that kind's speed.
    pub fn new(kind: DeviceKind) -> Self {
        Device {
            kind,
            blobs: Mutex::new(BTreeMap::new()),
        }
    }

    /// The device technology.
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// Modeled time to move `bytes` through this device with `sharers`
    /// concurrent clients on the same device (ranks of one node writing
    /// their checkpoints together divide the bandwidth).
    pub fn transfer_time(&self, bytes: usize, sharers: usize) -> Duration {
        let sharers = sharers.max(1) as f64;
        let secs = self.kind.latency() + bytes as f64 * sharers / self.kind.bandwidth();
        Duration::from_secs_f64(secs)
    }

    /// Store a blob; returns the modeled write time.
    pub fn write(&self, name: &str, data: Vec<u8>, sharers: usize) -> Duration {
        let t = self.transfer_time(data.len(), sharers);
        self.blobs.lock().insert(name.to_string(), data);
        t
    }

    /// Read a blob: lend its stored bytes to `f` under the device lock
    /// and return `f`'s result with the blob's modeled read time.
    pub fn read_with<R>(
        &self,
        name: &str,
        sharers: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Option<(R, Duration)> {
        let blobs = self.blobs.lock();
        let data = blobs.get(name)?;
        Some((f(data), self.transfer_time(data.len(), sharers)))
    }

    /// Remove a blob.
    pub fn remove(&self, name: &str) -> bool {
        self.blobs.lock().remove(name).is_some()
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> usize {
        self.blobs.lock().values().map(|v| v.len()).sum()
    }

    /// Drop everything (device reformat / node reprovision).
    pub fn clear(&self) {
        self.blobs.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdd_is_slower_than_ssd() {
        let b = 1 << 30; // 1 GiB
        let hdd = Device::new(DeviceKind::Hdd).transfer_time(b, 1);
        let ssd = Device::new(DeviceKind::Ssd).transfer_time(b, 1);
        assert!(hdd > ssd);
        // 1 GiB over 100 MB/s ≈ 10.7 s
        assert!((hdd.as_secs_f64() - 10.74).abs() < 0.2, "hdd time {hdd:?}");
    }

    #[test]
    fn sharers_divide_bandwidth() {
        let d = Device::new(DeviceKind::Ssd);
        let alone = d.transfer_time(1 << 20, 1).as_secs_f64();
        let shared = d.transfer_time(1 << 20, 4).as_secs_f64();
        assert!(shared > alone * 3.5, "4 sharers should ~4x the time");
    }

    #[test]
    fn write_read_round_trip() {
        let d = Device::new(DeviceKind::Hdd);
        let data = vec![7u8; 1000];
        let tw = d.write("ckpt", data.clone(), 2);
        assert!(tw > Duration::ZERO);
        let (back, tr) = d.read_with("ckpt", 2, <[u8]>::to_vec).unwrap();
        assert_eq!(back, data);
        assert!(tr > Duration::ZERO);
        assert_eq!(d.used_bytes(), 1000);
        assert!(d.remove("ckpt"));
        assert!(d.read_with("ckpt", 1, |_| ()).is_none());
    }

    #[test]
    fn zero_byte_transfer_still_pays_latency() {
        let d = Device::new(DeviceKind::Hdd);
        assert!(d.transfer_time(0, 1) >= Duration::from_millis(7));
    }
}
