// bench_e2e: one repetition of one end-to-end benchmark workload.
//
//   bench_e2e --workload paper-sweep|swarm-readmostly|swarm-writeheavy
//             [--seed S] [--seconds T] [--trace-dir DIR] [--smoke]
//             [--golden results/all_figures.txt]
//
// Prints one JSON object on stdout: the correctness fields, the end-to-end
// metrics and, with --trace-dir, the per-layer metrics (spans.jsonl and,
// for the swarm workloads, ledger.json are written into DIR). Exits 0 when
// every output was correct, 1 when a check failed, 2 on bad usage.
// run.py is the benchmark command: it builds this and reports its result.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <new>
#include <string>

#include "bench_e2e.hpp"
#include "runner/cli.hpp"

namespace {
std::atomic<std::uint64_t> gAllocations{0};
}  // namespace

// Counting allocator (the construction mci_swarm uses): the swarm's
// allocation probe samples this counter around its own callbacks.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace mci::e2e {

std::uint64_t allocationCount() {
  return gAllocations.load(std::memory_order_relaxed);
}

namespace {

/// Room for every runOnce of a traced swarm run plus the kernel probe's
/// replayed calls; later spans are counted as dropped.
constexpr std::size_t kSpanCapacity = std::size_t{1} << 19;

std::string quoted(const std::string& s) {
  std::string q = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') q += '\\';
    q += c;
  }
  return q + "\"";
}

void printMetrics(const char* key, const std::vector<Metric>& metrics) {
  std::printf(", %s: {", quoted(key).c_str());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s%s: {\"value\": ", i == 0 ? "" : ", ",
                quoted(m.name).c_str());
    if (std::isfinite(m.value)) {
      std::printf("%.17g", m.value);
    } else {
      std::printf("null");
    }
    std::printf(", \"unit\": %s}", quoted(m.unit).c_str());
  }
  std::printf("}");
}

void printOutcome(const Options& opts, const Outcome& out,
                  std::size_t spansDropped) {
  std::printf("{\"workload\": %s, \"seed\": %llu, \"correct\": %s, "
              "\"attempted\": %llu, \"failed\": %llu, \"violations\": [",
              quoted(opts.workload).c_str(),
              static_cast<unsigned long long>(opts.seed),
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.violations.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ", ", quoted(out.violations[i]).c_str());
  }
  std::printf("]");
  printMetrics("end_to_end", out.endToEnd);
  printMetrics("per_layer", out.perLayer);
  std::printf(", \"spans_dropped\": %zu}\n", spansDropped);
}

}  // namespace
}  // namespace mci::e2e

int main(int argc, char** argv) {
  using namespace mci::e2e;
  const mci::runner::Cli cli(argc, argv);
  Options opts;
  opts.workload = cli.getStr("workload", "");
  opts.seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));
  opts.seconds = cli.getDouble("seconds", opts.seconds);
  opts.smoke = cli.has("smoke");
  opts.traceDir = cli.getStr("trace-dir", "");
  opts.golden = cli.getStr("golden", "results/all_figures.txt");
  for (const std::string& unknown : cli.unknownArgs()) {
    std::fprintf(stderr, "bench_e2e: unknown flag --%s\n", unknown.c_str());
    return 2;
  }
  const bool sweep = opts.workload == "paper-sweep";
  if (!sweep && opts.workload != "swarm-readmostly" &&
      opts.workload != "swarm-writeheavy") {
    std::fprintf(stderr,
                 "bench_e2e: --workload must be paper-sweep, "
                 "swarm-readmostly or swarm-writeheavy\n");
    return 2;
  }
  if (!(opts.seconds > 0)) {
    std::fprintf(stderr, "bench_e2e: --seconds must be positive\n");
    return 2;
  }

  (void)wallNow();  // starts the process wall clock
  SpanLog spans(opts.traced() ? kSpanCapacity : 0);
  Outcome out;
  try {
    out = sweep ? runPaperSweep(opts, spans) : runSwarmWorkload(opts, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
  if (opts.traced() && !spans.writeJsonl(opts.traceDir + "/spans.jsonl")) {
    std::fprintf(stderr, "bench_e2e: cannot write %s/spans.jsonl\n",
                 opts.traceDir.c_str());
    return 1;
  }
  for (const std::string& v : out.violations) {
    std::fprintf(stderr, "bench_e2e: violation: %s\n", v.c_str());
  }
  printOutcome(opts, out, spans.dropped());
  return out.correct ? 0 : 1;
}
