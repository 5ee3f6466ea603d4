#include "host_probe.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "span_trace.h"

namespace canon {

HostProbe RunHostProbe() {
  constexpr size_t kEntries = size_t{1} << 19;  // 4 MiB of indexes
  constexpr int64_t kSteps = int64_t{1} << 23;
  // Sattolo's shuffle: one cycle through every entry, fixed seed.
  std::vector<uint64_t> next(kEntries);
  for (size_t i = 0; i < kEntries; ++i) next[i] = i;
  casc::Rng rng(0x5EED);
  for (size_t i = kEntries - 1; i > 0; --i) {
    const size_t j = static_cast<size_t>(rng.UniformInt(uint64_t{i}));
    std::swap(next[i], next[j]);
  }
  uint64_t at = 0;
  for (size_t i = 0; i < kEntries; ++i) at = next[at];  // warm the buffer
  const double start = NowSeconds();
  for (int64_t step = 0; step < kSteps; ++step) at = next[at];
  const double seconds = NowSeconds() - start;
  HostProbe probe;
  probe.seconds = seconds;
  probe.end_index = at;  // keeps the chase observable
  probe.ns_per_step = seconds * 1e9 / static_cast<double>(kSteps);
  probe.buffer_mib = static_cast<double>(kEntries * sizeof(uint64_t)) /
                     static_cast<double>(1 << 20);
  return probe;
}

}  // namespace canon
