// The benchmark program: runs one workload on the plain and SHIELD engines
// and prints every metric by name with its unit, then one JSON result
// line. See README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--span-file <path>]

#include <cpuid.h>

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

bool CpuHas(unsigned leaf, unsigned reg_index, unsigned bit) {
  unsigned regs[4] = {0, 0, 0, 0};
  if (!__get_cpuid_count(leaf, 0, &regs[0], &regs[1], &regs[2], &regs[3])) {
    return false;
  }
  return (regs[reg_index] >> bit) & 1u;
}

std::string HostJson() {
  const bool aes_ni = CpuHas(1, 2, 25);   // CPUID.1:ECX.AES
  const bool sha_ni = CpuHas(7, 1, 29);   // CPUID.(7,0):EBX.SHA
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"aes_ni\": %s, \"sha_ni\": %s, "
                "\"compiler\": \"%s\", \"build_type\": \"%s\"}",
                std::thread::hardware_concurrency(),
                aes_ni ? "true" : "false", sha_ni ? "true" : "false",
                __VERSION__, PERFBENCH_BUILD_TYPE);
  return buf;
}

bool OptimizedBuild() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--span-file <path>]\n",
               why);
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions ro;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage("missing value");
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    uint64_t n = 0;
    if (flag == "--workload") {
      ro.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseUint(value, &n)) {
      ro.seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUint(value, &n) && n >= 1 &&
               n <= 3600) {
      ro.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace" && ParseUint(value, &n) && n <= 1) {
      ro.trace = n == 1;
      have_trace = true;
    } else if (flag == "--span-file") {
      ro.span_path = value;
    } else {
      return Usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  std::printf("host: %s\n", HostJson().c_str());
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a '%s' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release or RelWithDebInfo\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  if (!ro.span_path.empty()) std::remove(ro.span_path.c_str());

  perfbench::RunReport report;
  shield::Status s = perfbench::RunWorkload(ro, &report);
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", ro.workload.c_str(),
                 s.ToString().c_str());
    return 1;
  }

  std::printf("workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              ro.workload.c_str(), ro.seed, ro.seconds, ro.trace ? 1 : 0);
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("  %-44s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  attempted=%" PRIu64 " failed=%" PRIu64 " correct=%s\n",
              report.attempted, report.failed,
              report.correct ? "true" : "false");

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 4;
}
