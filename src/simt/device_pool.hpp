// A pool of warm simt::Devices handed out in multi-device leases — the
// "k distinct GPUs" of the sharded deployment (DESIGN.md §14). The
// sharded engine asks for one device per shard; the pool grants as many
// as are free and the lease multiplexes shards onto the grant
// round-robin. The degradation ladder is therefore graceful by
// construction:
//
//     k free devices  -> every shard sweeps on its own device;
//     f < k free      -> shard s runs on lane s % f (round-robin);
//     1 free          -> the sequential simulation, one warm device.
//
// acquire() only BLOCKS while zero devices are free — holding out for a
// full grant would serialize concurrent jobs exactly when the pool is
// busiest. Devices are constructed lazily (first lease that reaches
// them), so an unused pool costs two vectors; each device keeps its
// thread pool + shared arenas warm for its next lease, mirroring how
// svc::Service keeps core detectors warm per worker.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include <condition_variable>

#include "simt/device.hpp"

namespace glouvain::simt {

struct DevicePoolConfig {
  /// Devices the pool can hand out (the "GPUs in the box").
  unsigned max_devices = 2;
  /// Worker threads per device; 0 splits total_threads evenly across
  /// max_devices (at least 1 each) so k concurrent shard sweeps never
  /// oversubscribe the host the way k full-width devices would.
  unsigned threads_per_device = 0;
  /// Host threads to split when threads_per_device == 0; 0 = hardware
  /// concurrency.
  unsigned total_threads = 0;
  /// Template for each pooled device (backend, block shape, arena
  /// bytes). worker_threads is overridden per the fields above.
  DeviceConfig device;
};

class DeviceLease;

class DevicePool {
 public:
  explicit DevicePool(const DevicePoolConfig& config = {});
  ~DevicePool();

  DevicePool(const DevicePool&) = delete;
  DevicePool& operator=(const DevicePool&) = delete;

  /// Lease up to `want` devices (want is clamped to [1, max_devices]).
  /// Grants min(want, free) immediately when any device is free;
  /// blocks only while every device is leased out. The lease releases
  /// on destruction.
  DeviceLease acquire(unsigned want);

 private:
  friend class DeviceLease;
  void release(const std::vector<unsigned>& indices);

  DevicePoolConfig config_;
  unsigned threads_per_device_ = 1;
  std::mutex m_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<bool> in_use_;
};

/// Move-only RAII grant of 1..want devices. Shards map onto the grant
/// round-robin (lane_of) when the pool degraded the lease below the
/// asked-for width.
class DeviceLease {
 public:
  DeviceLease() = default;
  DeviceLease(DeviceLease&& other) noexcept { *this = std::move(other); }
  DeviceLease& operator=(DeviceLease&& other) noexcept {
    if (this != &other) {
      release();
      pool_ = other.pool_;
      indices_ = std::move(other.indices_);
      devices_ = std::move(other.devices_);
      other.pool_ = nullptr;
      other.indices_.clear();
      other.devices_.clear();
    }
    return *this;
  }
  ~DeviceLease() { release(); }

  unsigned granted() const noexcept {
    return static_cast<unsigned>(devices_.size());
  }
  Device& device(unsigned lane) const { return *devices_[lane]; }
  /// Round-robin shard placement over the granted lanes.
  unsigned lane_of(unsigned shard) const noexcept {
    return shard % static_cast<unsigned>(devices_.size());
  }

 private:
  friend class DevicePool;
  DeviceLease(DevicePool* pool, std::vector<unsigned> indices,
              std::vector<Device*> devices)
      : pool_(pool), indices_(std::move(indices)), devices_(std::move(devices)) {}
  void release() {
    if (pool_ != nullptr) pool_->release(indices_);
    pool_ = nullptr;
    indices_.clear();
    devices_.clear();
  }

  DevicePool* pool_ = nullptr;
  std::vector<unsigned> indices_;
  std::vector<Device*> devices_;
};

}  // namespace glouvain::simt
