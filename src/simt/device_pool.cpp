#include "simt/device_pool.hpp"

#include <algorithm>
#include <thread>

namespace glouvain::simt {

DevicePool::DevicePool(const DevicePoolConfig& config) : config_(config) {
  if (config_.max_devices == 0) config_.max_devices = 1;
  threads_per_device_ = config_.threads_per_device;
  if (threads_per_device_ == 0) {
    unsigned total = config_.total_threads;
    if (total == 0) total = std::max(1u, std::thread::hardware_concurrency());
    threads_per_device_ = std::max(1u, total / config_.max_devices);
  }
  devices_.resize(config_.max_devices);
  in_use_.assign(config_.max_devices, false);
}

DevicePool::~DevicePool() = default;

DeviceLease DevicePool::acquire(unsigned want) {
  want = std::clamp(want, 1u, config_.max_devices);
  std::unique_lock lock(m_);
  cv_.wait(lock, [&] {
    return std::find(in_use_.begin(), in_use_.end(), false) != in_use_.end();
  });
  std::vector<unsigned> indices;
  std::vector<Device*> granted;
  for (unsigned i = 0; i < config_.max_devices && granted.size() < want; ++i) {
    if (in_use_[i]) continue;
    if (!devices_[i]) {
      DeviceConfig dc = config_.device;
      dc.worker_threads = threads_per_device_;
      devices_[i] = std::make_unique<Device>(dc);
    }
    in_use_[i] = true;
    indices.push_back(i);
    granted.push_back(devices_[i].get());
  }
  return DeviceLease(this, std::move(indices), std::move(granted));
}

void DevicePool::release(const std::vector<unsigned>& indices) {
  {
    const std::lock_guard lock(m_);
    for (const unsigned i : indices) in_use_[i] = false;
  }
  cv_.notify_all();
}

}  // namespace glouvain::simt
