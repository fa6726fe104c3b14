#include "obs/stage_counters.h"

#include <cstdio>

namespace edr {

std::string StageCounters::ToJson() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"considered\": %llu, \"qgram_pruned\": %llu, "
      "\"histogram_pruned\": %llu, \"triangle_pruned\": %llu, "
      "\"dp_invoked\": %llu, \"dp_early_abandoned\": %llu, "
      "\"dp_cells\": %llu, \"not_visited\": %llu, "
      "\"qgram_skipped\": %llu, \"triangle_skipped\": %llu}",
      static_cast<unsigned long long>(considered),
      static_cast<unsigned long long>(qgram_pruned),
      static_cast<unsigned long long>(histogram_pruned),
      static_cast<unsigned long long>(triangle_pruned),
      static_cast<unsigned long long>(dp_invoked),
      static_cast<unsigned long long>(dp_early_abandoned),
      static_cast<unsigned long long>(dp_cells),
      static_cast<unsigned long long>(not_visited),
      static_cast<unsigned long long>(qgram_skipped),
      static_cast<unsigned long long>(triangle_skipped));
  return buf;
}

}  // namespace edr
