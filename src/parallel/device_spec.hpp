#pragma once
// Device descriptions for the capacity experiments. Table I of the paper
// lists the three GPUs used; Table II / Fig. 4 solve for the maximum
// context length that fits each capacity. Only the byte budget matters
// for those results, so a DeviceSpec is a named capacity.

#include <string>

#include "common/types.hpp"

namespace gpa {

struct DeviceSpec {
  std::string name;
  Size memory_bytes = 0;

  /// NVIDIA A100 SXM4 80GB — the device Table II / Fig. 4 / Table III use.
  static DeviceSpec a100_80gb() { return {"NVIDIA A100 (SXM4 80GB)", 80ull << 30}; }
  /// NVIDIA L40 48GB (Table I).
  static DeviceSpec l40_48gb() { return {"NVIDIA L40 (48GB)", 48ull << 30}; }
  /// NVIDIA V100 SXM2 32GB (Table I).
  static DeviceSpec v100_32gb() { return {"NVIDIA V100 (SXM2 32GB)", 32ull << 30}; }
  /// NVIDIA H100 SXM5 80GB — same byte budget as the A100-80GB, so the
  /// capacity model (which only sees bytes) predicts identical limits.
  static DeviceSpec h100_80gb() { return {"NVIDIA H100 (SXM5 80GB)", 80ull << 30}; }
  /// NVIDIA GeForce RTX 4090 24GB — consumer-tier budget point below
  /// every Table I datacenter card.
  static DeviceSpec rtx4090_24gb() { return {"NVIDIA RTX 4090 (24GB)", 24ull << 30}; }
  /// A pseudo-device with an arbitrary byte budget (small budgets for tests).
  static DeviceSpec host(Size bytes) { return {"host", bytes}; }
};

}  // namespace gpa
