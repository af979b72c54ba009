// rts_perfbench — the benchmark harness behind perfbench/run.py.
//
//   load           open-loop load generator against a listening rts_serve
//   reference      in-process reference result lines for request lines
//   check-offline  validate an `rts schedule` output and re-derive the
//                  `rts evaluate --json` report in-process
//   check-resched  re-derive the `rts resched --json` report in-process
//   trace-serve    in-process replay of a serve workload with spans
//   trace-offline  stage-by-stage offline pipeline with spans
//   trace-resched  per-realization online rescheduling with spans
//
// Exit codes: 0 ok, 1 a correctness check failed or an error occurred,
// 2 usage.

#include <ctime>
#include <exception>
#include <iostream>
#include <sstream>
#include <string_view>

#include "common.hpp"
#include "util/error.hpp"

namespace perfbench {

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  RTS_REQUIRE(in.good(), "cannot open " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  RTS_REQUIRE(in.good(), "cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string require(const rts::Options& opts, const std::string& key) {
  const auto value = opts.raw(key);
  RTS_REQUIRE(value.has_value(), "missing required option --" + key);
  return *value;
}

std::vector<ScheduledRequest> read_schedule(const std::string& path) {
  std::vector<ScheduledRequest> out;
  for (const std::string& row : read_lines(path)) {
    const auto tab = row.find('\t');
    RTS_REQUIRE(tab != std::string::npos, "malformed schedule row: " + row);
    out.push_back({std::stoll(row.substr(0, tab)) * 1000, row.substr(tab + 1)});
  }
  return out;
}

std::int64_t SpanRecorder::span(const char* name, std::int64_t request,
                                std::int64_t parent, std::int64_t start_ns,
                                std::int64_t end_ns) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, request, parent, start_ns, end_ns});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t SpanRecorder::begin(const char* name, std::int64_t request,
                                 std::int64_t parent) {
  return span(name, request, parent, now_ns(), -1);
}

void SpanRecorder::end(std::int64_t id) {
  if (!enabled_ || id < 0) return;
  const std::int64_t at = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = at;
}

void SpanRecorder::count(const char* name, std::int64_t request, double value) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  counts_.push_back({name, request, value});
}

void SpanRecorder::write(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "S\t" << i << '\t' << s.parent << '\t' << s.request << '\t' << s.name
        << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  out.precision(17);
  for (const Count& c : counts_) {
    out << "C\t" << c.request << '\t' << c.name << '\t' << c.value << '\n';
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::cerr << "usage: rts_perfbench <load|reference|check-offline|"
                 "check-resched|trace-serve|trace-offline|trace-resched> "
                 "[options]\n";
    return 2;
  }
  const std::string_view command = argv[1];
  // Options skips its argv[0], which here is the subcommand.
  const rts::Options opts(argc - 1, argv + 1);
  try {
    if (command == "load") return run_load(opts);
    if (command == "reference") return run_reference(opts);
    if (command == "check-offline") return run_check_offline(opts);
    if (command == "check-resched") return run_check_resched(opts);
    if (command == "trace-serve") return run_trace_serve(opts);
    if (command == "trace-offline") return run_trace_offline(opts);
    if (command == "trace-resched") return run_trace_resched(opts);
  } catch (const std::exception& e) {
    std::cerr << "rts_perfbench " << command << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "rts_perfbench: unknown command " << command << "\n";
  return 2;
}
