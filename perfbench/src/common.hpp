#pragma once
// Shared plumbing of the rts_perfbench harness: the monotonic clock, small
// file helpers, and the in-memory span/count recorder of the traced runs.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "resched/rescheduler.hpp"
#include "util/cli.hpp"
#include "workload/problem.hpp"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock) — every timestamp the harness writes.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (all threads) in nanoseconds.
std::int64_t process_cpu_ns();

/// Lines of a text file (without '\n'); throws if the file cannot be read.
std::vector<std::string> read_lines(const std::string& path);

/// Whole file as bytes; throws if it cannot be read.
std::string read_file(const std::string& path);

/// Value of a required --key option; throws if it is missing.
std::string require(const rts::Options& opts, const std::string& key);

/// One request of a generated load schedule: its due time relative to the
/// start of the run and the request line as it goes on the wire.
struct ScheduledRequest {
  std::int64_t due_ns = 0;
  std::string line;
};

/// Parse a schedule file: one `due_us<TAB>request line` per request.
std::vector<ScheduledRequest> read_schedule(const std::string& path);

/// Spans and counts of one traced run, kept in memory and written at exit.
/// A span has a name, start, end, parent span (-1 for a root) and request
/// id; a count attaches a value to a request id. Thread-safe: completion
/// callbacks record from worker threads.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Record a finished span; returns its id (-1 when disabled).
  std::int64_t span(const char* name, std::int64_t request, std::int64_t parent,
                    std::int64_t start_ns, std::int64_t end_ns);

  /// Open a span that starts now and is closed by end(); lets a parent be
  /// recorded before its children. Returns -1 when disabled.
  std::int64_t begin(const char* name, std::int64_t request, std::int64_t parent);
  void end(std::int64_t id);

  void count(const char* name, std::int64_t request, double value);

  /// Append every record to `out` as TSV:
  ///   S <id> <parent> <request> <name> <start_ns> <end_ns>
  ///   C <request> <name> <value>
  void write(std::ostream& out) const;

 private:
  struct Span {
    const char* name;
    std::int64_t request;
    std::int64_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct Count {
    const char* name;
    std::int64_t request;
    double value;
  };

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<Count> counts_;
};

/// Times `body` as a span named `name`; returns the span id.
template <typename Body>
std::int64_t timed(SpanRecorder& rec, const char* name, std::int64_t request,
                   std::int64_t parent, Body&& body) {
  const std::int64_t start = now_ns();
  body();
  return rec.span(name, request, parent, start, now_ns());
}

/// The inputs `rts resched` derives from its options (apps/rts_cli.cpp,
/// cmd_resched), rebuilt in-process for the reference check and the traced
/// replay: the problem with synthetic deadlines, the HEFT plan, and the
/// online and one-shot configurations.
struct ReschedSetup {
  rts::ProblemInstance instance;
  rts::Schedule plan;
  rts::ReschedConfig online;
  rts::ReschedConfig one_shot;
  rts::ReschedEvalConfig mc;
};
ReschedSetup resched_cli_setup(const std::string& problem_path, std::uint64_t seed,
                               double oversubscription, std::size_t realizations);

int run_load(const rts::Options& opts);
int run_reference(const rts::Options& opts);
int run_check_offline(const rts::Options& opts);
int run_check_resched(const rts::Options& opts);
int run_trace_serve(const rts::Options& opts);
int run_trace_offline(const rts::Options& opts);
int run_trace_resched(const rts::Options& opts);

}  // namespace perfbench
