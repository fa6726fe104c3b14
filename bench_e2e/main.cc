// End-to-end and per-layer benchmark of exact EDR k-NN and range search.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>] [--scale <x>]
//
// Prints provenance, then every metric by name with its unit, then as the
// last line one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the span log to --spans when given). Exits 1 when any op
// failed or the span log is malformed, 2 on bad arguments or a build that
// must not be timed. See README.md in this directory.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/cpu.h"
#include "harness.h"

#ifndef EDR_BENCH_BUILD_TYPE
#define EDR_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using edr::bench_e2e::Metric;
using edr::bench_e2e::RunConfig;
using edr::bench_e2e::RunReport;

/// Why this build must not be timed, or nullptr.
const char* UntimeableBuild() {
#if defined(EDR_BENCH_SANITIZED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif !defined(NDEBUG)
  return "assertions enabled (Debug build)";
#else
  const std::string type = EDR_BENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "not a Release build";
  }
  return nullptr;
#endif
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>] [--scale <x>]\n",
               why);
  return 2;
}

void PrintMetrics(const char* tag, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (std::isnan(m.value)) {
      std::printf("%s %s n/a %s (fewer than 10 samples beyond it)\n", tag,
                  m.name.c_str(), m.unit.c_str());
    } else {
      std::printf("%s %s %.6g %s\n", tag, m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string spans_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      if (!config.trace && std::strcmp(value, "0") != 0) {
        return Usage("--trace takes 0 or 1");
      }
    } else if (arg == "--spans") {
      spans_path = value;
    } else if (arg == "--scale") {
      config.scale = std::strtod(value, &end);
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      return Usage(("not a number: " + std::string(value)).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(config.seconds > 0.0) || !(config.scale > 0.0)) {
    return Usage("--seconds and --scale must be positive");
  }
  if (const char* why = UntimeableBuild()) {
    std::fprintf(stderr, "bench_e2e: refusing to time this build: %s\n", why);
    return 2;
  }

  const char* pin = std::getenv("EDR_FORCE_KERNEL");
  std::printf(
      "provenance {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"host_cores\":%u,\"kernel_level\":\"%s\","
      "\"kernel_pin\":\"%s\",\"build_type\":\"%s\"}\n",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0,
      std::thread::hardware_concurrency(),
      edr::KernelLevelName(edr::ActiveKernelLevel()),
      pin == nullptr ? "none" : pin, EDR_BENCH_BUILD_TYPE);
  std::fflush(stdout);

  RunReport report;
  try {
    report = edr::bench_e2e::Run(config);
  } catch (const std::invalid_argument& e) {
    return Usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: run failed: %s\n", e.what());
    return 1;
  }

  if (config.trace && !spans_path.empty()) {
    if (std::FILE* f = std::fopen(spans_path.c_str(), "w")) {
      report.spans.WriteJson(f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                   spans_path.c_str());
    }
  }
  if (!report.span_error.empty()) {
    std::fprintf(stderr, "bench_e2e: malformed span log: %s\n",
                 report.span_error.c_str());
  }

  PrintMetrics("metric", report.metrics);
  PrintMetrics("detail", report.details);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return report.correct() ? 0 : 1;
}
