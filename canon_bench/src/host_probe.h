// Fixed host-speed probe: a dependent pointer chase over a buffer sized
// between L2 and L3, so its speed tracks memory-hierarchy contention from
// neighbouring load. It is recorded next to each result as context for
// reading drift; it never normalizes a metric.
#ifndef CANON_BENCH_HOST_PROBE_H_
#define CANON_BENCH_HOST_PROBE_H_

#include <cstdint>

namespace canon {

struct HostProbe {
  double ns_per_step = 0.0;
  double seconds = 0.0;
  double buffer_mib = 0.0;
  uint64_t end_index = 0;
};

HostProbe RunHostProbe();

}  // namespace canon

#endif  // CANON_BENCH_HOST_PROBE_H_
