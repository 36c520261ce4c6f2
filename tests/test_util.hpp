// Shared fixtures/helpers for the test suite.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include <gtest/gtest.h>
#include <unistd.h>

#include "gpusim/counters.hpp"
#include "gpusim/device.hpp"
#include "gpusim/exec_context.hpp"
#include "gpusim/thread_pool.hpp"

namespace sepo::test {

// A bundled virtual device + pool + stats + execution context with a
// configurable capacity.
struct Rig {
  explicit Rig(std::size_t device_bytes, std::size_t workers = 0)
      : dev(device_bytes), pool(workers) {}

  gpusim::Device dev;
  gpusim::ThreadPool pool;
  gpusim::RunStats stats;
  gpusim::ExecContext ctx{dev, pool, stats};
};

// A scratch file path under the test temp directory, unique to this process:
// ctest runs sepo_tests and its filtered sepo_sanitize_core entry at the same
// time, and the two must never write the same file.
inline std::string temp_path(std::string_view name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" +
         std::string(name);
}

inline std::span<const std::byte> bytes_of(const std::uint64_t& v) {
  return std::as_bytes(std::span{&v, 1});
}

inline std::string bytes_to_string(std::span<const std::byte> b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

inline std::uint64_t as_u64(std::span<const std::byte> b) {
  std::uint64_t v = 0;
  std::memcpy(&v, b.data(), std::min<std::size_t>(8, b.size()));
  return v;
}

}  // namespace sepo::test
