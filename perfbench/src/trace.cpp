// Traced runs: each workload replayed in-process, with a span around every
// call into a layer's public functions. Each replay runs twice — once
// recording nothing but the end-to-end times, once recording spans — so the
// difference is the tracing overhead. run.py turns the records into the
// per-layer metrics (self times, percentiles, ratios with their bases).
//
// Output records (TSV, one per line, besides the SpanRecorder's S/C lines):
//   L <mode> <request> <due_ns> <done_ns> <cache_hit>   in-process request
//   W <mode> <wall_ns> <units>                          whole-pass wall time
// where mode is 0 for the untraced pass and 1 for the traced pass.

#include <algorithm>
#include <condition_variable>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "core/stochastic.hpp"
#include "ga/engine.hpp"
#include "net/framing.hpp"
#include "net/serve_protocol.hpp"
#include "resched/drop_policy.hpp"
#include "sched/heft.hpp"
#include "service/fingerprint.hpp"
#include "service/scheduler_service.hpp"
#include "sim/monte_carlo.hpp"
#include "util/error.hpp"
#include "workload/serialization.hpp"
#include "workload/uncertainty.hpp"

namespace perfbench {

namespace {

void sleep_until_ns(std::int64_t due) {
  // Sleep to within 100 us of the due time, then spin.
  for (std::int64_t left; (left = due - now_ns()) > 0;) {
    if (left > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
    }
  }
}

/// `rts generate` problem specs: `path<TAB>seed<TAB>tasks<TAB>procs` rows.
/// Each problem is regenerated in-process (timed as workload.generate) and
/// must serialize to the exact bytes of the file the CLI wrote; then the
/// file is loaded (timed as workload.load).
bool regenerate_problems(const std::string& spec_path, SpanRecorder& rec,
                         const std::string& scratch_path) {
  bool identical = true;
  std::int64_t id = 0;
  for (const std::string& row : read_lines(spec_path)) {
    std::istringstream is(row);
    std::string path;
    std::uint64_t seed = 0;
    std::size_t tasks = 0;
    std::size_t procs = 0;
    RTS_REQUIRE(static_cast<bool>(std::getline(is, path, '\t') >> seed >> tasks >> procs),
                "malformed problem spec: " + row);
    rts::PaperInstanceParams params;
    params.task_count = tasks;
    params.proc_count = procs;
    rts::Rng rng(seed);
    std::optional<rts::ProblemInstance> generated;
    timed(rec, "workload.generate", id, -1,
          [&] { generated.emplace(rts::make_paper_instance(params, rng)); });
    rts::save_problem_file(scratch_path, *generated);
    if (read_file(scratch_path) != read_file(path)) {
      std::cerr << "problem " << path << " differs from its in-process regeneration\n";
      identical = false;
    }
    timed(rec, "workload.load", id, -1, [&] { (void)rts::load_problem_file(path); });
    ++id;
  }
  return identical;
}

/// One solve, stage by stage, exactly as rts::robust_schedule composes it:
/// HEFT, the ε-constraint GA, then Monte Carlo of both schedules.
rts::SolveSummary solve_by_stages(const rts::ProblemInstance& instance,
                                  const rts::RobustSchedulerConfig& config,
                                  SpanRecorder& rec, std::int64_t request) {
  const std::int64_t root = rec.begin("solve", request, -1);
  instance.validate();
  std::optional<rts::ListScheduleResult> heft;
  timed(rec, "sched.heft", request, root, [&] {
    heft.emplace(rts::heft_schedule(instance.graph, instance.platform, instance.expected));
  });
  rts::GaConfig ga_config = config.ga;
  rts::Matrix<double> stddev;
  const rts::Matrix<double>* stddev_ptr = nullptr;
  if (config.stochastic_objective) {
    ga_config.objective = rts::ObjectiveKind::kEpsilonConstraintEffective;
    stddev = rts::duration_stddev(instance.bcet, instance.ul);
    stddev_ptr = &stddev;
  }
  std::optional<rts::GaResult> ga;
  const std::int64_t cpu0 = process_cpu_ns();
  timed(rec, "ga.run", request, root, [&] {
    ga.emplace(rts::run_ga(instance.graph, instance.platform, instance.expected,
                           ga_config, nullptr, stddev_ptr, nullptr));
  });
  rec.count("ga.cpu_ns", request, static_cast<double>(process_cpu_ns() - cpu0));
  rec.count("ga.generations", request, static_cast<double>(ga->iterations));
  std::optional<rts::RobustnessReport> ga_report;
  std::optional<rts::RobustnessReport> heft_report;
  timed(rec, "sim.mc", request, root, [&] {
    ga_report.emplace(rts::evaluate_robustness(instance, ga->best_schedule, config.mc));
  });
  timed(rec, "sim.mc", request, root, [&] {
    heft_report.emplace(rts::evaluate_robustness(instance, heft->schedule, config.mc));
  });
  rec.count("sim.realizations", request, static_cast<double>(2 * config.mc.realizations));
  rec.end(root);

  rts::SolveSummary s;
  s.heft_makespan = ga->heft_makespan;
  s.makespan = ga->best_eval.makespan;
  s.avg_slack = ga->best_eval.avg_slack;
  s.mean_tardiness = ga_report->mean_tardiness;
  s.miss_rate = ga_report->miss_rate;
  s.r1 = ga_report->r1;
  s.r2 = ga_report->r2;
  s.heft_r1 = heft_report->r1;
  s.heft_r2 = heft_report->r2;
  s.ga_iterations = ga->iterations;
  return s;
}

/// Per-request record of one in-process replay.
struct Replayed {
  std::int64_t due = 0;
  std::int64_t started = 0;    ///< the replay loop reached the request
  std::int64_t framed = 0;     ///< LineFramer::feed returned
  std::int64_t parsed = 0;     ///< parse_request_line returned
  std::int64_t digested = 0;   ///< job_digest returned; submit_async called
  std::int64_t callback = 0;   ///< completion callback entered
  std::int64_t rendered = 0;   ///< render_result_line returned (done)
  double latency_ms = 0.0;     ///< JobResult::latency_ms (dequeue to resolve)
  bool accepted = false;
  bool ok = false;
  bool cache_hit = false;
  std::size_t bytes_in = 0;
  std::size_t bytes_out = 0;
  rts::Digest key;
  rts::SolveSummary summary;
};

/// Replay `requests` on their arrival schedule through the same calls the
/// socket front end makes: frame, parse, digest, submit_async, render.
/// Untraced, only the completion time is read; traced, the clock is read at
/// every layer boundary as well.
std::vector<Replayed> replay(const std::vector<ScheduledRequest>& requests,
                             const std::vector<std::string>& warm,
                             const rts::SchedulerServiceConfig& config,
                             const std::vector<std::string>& problem_paths, bool traced) {
  // Declared before the service, whose workers run the callbacks that
  // touch them, so they outlive it on every path.
  std::vector<Replayed> out(requests.size());
  std::mutex mutex;
  std::condition_variable all_done;
  std::size_t done = 0;
  rts::SchedulerService service(config);
  rts::ProblemCache problems;
  for (const std::string& path : problem_paths) (void)problems.load(path);
  std::vector<std::future<rts::JobResult>> warming;
  for (const std::string& line : warm) {
    rts::ParsedRequest parsed =
        rts::parse_request_line(*rts::strip_request_line(line), problems);
    auto future = service.submit(std::move(parsed.request));
    RTS_REQUIRE(future.has_value(), "warm-up request rejected");
    warming.push_back(std::move(*future));
  }
  for (auto& f : warming) RTS_REQUIRE(f.get().status == rts::JobStatus::kOk, "warm-up failed");

  rts::LineFramer framer;
  std::string framed_line;
  const auto sink = [&framed_line](std::string_view line, rts::FrameStatus) {
    framed_line.assign(line);
  };
  const std::int64_t t0 = now_ns() + 20'000'000;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Replayed& r = out[i];
    r.due = t0 + requests[i].due_ns;
    sleep_until_ns(r.due);
    if (traced) r.started = now_ns();
    const std::string chunk = requests[i].line + "\n";
    r.bytes_in = chunk.size();
    framer.feed(chunk, sink);
    if (traced) r.framed = now_ns();
    rts::ParsedRequest parsed =
        rts::parse_request_line(*rts::strip_request_line(framed_line), problems);
    if (traced) r.parsed = now_ns();
    r.key = rts::job_digest(*parsed.request.problem, parsed.request.config);
    if (traced) r.digested = now_ns();
    const auto outcome = service.submit_async(
        std::move(parsed.request),
        [&, i, traced, path = parsed.problem_path](rts::JobResult&& result) {
          Replayed& d = out[i];
          if (traced) d.callback = now_ns();
          const std::string line = rts::render_result_line(i, path, result);
          d.rendered = now_ns();
          d.bytes_out = line.size() + 1;
          d.latency_ms = result.latency_ms;
          d.ok = result.status == rts::JobStatus::kOk;
          d.cache_hit = result.cache_hit;
          d.summary = result.summary;
          const std::lock_guard<std::mutex> lock(mutex);
          ++done;
          all_done.notify_one();
        });
    r.accepted = outcome == rts::SchedulerService::SubmitOutcome::kAccepted;
    if (!r.accepted) {
      const std::lock_guard<std::mutex> lock(mutex);
      ++done;
    }
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    all_done.wait(lock, [&] { return done == requests.size(); });
  }
  // Join the workers while the state their callbacks touch is alive.
  service.shutdown();
  return out;
}

}  // namespace

int run_trace_serve(const rts::Options& opts) {
  const std::vector<ScheduledRequest> requests = read_schedule(require(opts, "schedule"));
  const std::vector<std::string> warm =
      opts.raw("warm") ? read_lines(*opts.raw("warm")) : std::vector<std::string>{};
  rts::SchedulerServiceConfig config;
  config.workers = static_cast<std::size_t>(opts.get_int("workers", 4));
  config.queue_capacity = static_cast<std::size_t>(opts.get_int("queue-capacity", 1024));
  const std::string out_path = require(opts, "out");

  SpanRecorder rec(true);
  const std::string spec_path = require(opts, "problems");
  bool ok = regenerate_problems(spec_path, rec, out_path + ".gen");
  std::vector<std::string> problem_paths;
  for (const std::string& row : read_lines(spec_path)) {
    problem_paths.push_back(row.substr(0, row.find('\t')));
  }

  std::ofstream out(out_path);
  RTS_REQUIRE(out.good(), "cannot open --out file");
  std::vector<Replayed> traced;
  for (int mode = 0; mode < 2; ++mode) {
    std::vector<Replayed> rows = replay(requests, warm, config, problem_paths, mode == 1);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Replayed& r = rows[i];
      out << "L\t" << mode << '\t' << i << '\t' << r.due << '\t'
          << (r.accepted ? r.rendered : -1) << '\t' << (r.cache_hit ? 1 : 0) << '\n';
    }
    if (mode == 1) traced = std::move(rows);
  }

  // Spans of the traced pass, built from its timestamps after the pass.
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const Replayed& r = traced[i];
    if (!r.accepted) continue;
    const auto req = static_cast<std::int64_t>(i);
    const std::int64_t root = rec.span("request", req, -1, r.due, r.rendered);
    rec.span("net.frame", req, root, r.started, r.framed);
    rec.span("net.parse", req, root, r.framed, r.parsed);
    rec.span("service.digest", req, root, r.parsed, r.digested);
    const std::int64_t dequeued = std::clamp(
        r.callback - static_cast<std::int64_t>(r.latency_ms * 1e6), r.digested, r.callback);
    rec.span("service.queue_wait", req, root, r.digested, dequeued);
    rec.span("service.solve", req, root, dequeued, r.callback);
    rec.span("net.render", req, root, r.callback, r.rendered);
    rec.count("net.bytes_in", req, static_cast<double>(r.bytes_in));
    rec.count("net.bytes_out", req, static_cast<double>(r.bytes_out));
    rec.count("service.cache_hit", req, r.cache_hit ? 1.0 : 0.0);
    if (!r.ok) ok = false;
  }

  // Stage-by-stage solve of each distinct request; it must reproduce the
  // service's SolveSummary bit for bit.
  rts::ProblemCache problems;
  std::map<std::pair<std::uint64_t, std::uint64_t>, bool> solved;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const Replayed& r = traced[i];
    if (!r.accepted || !solved.emplace(std::make_pair(r.key.hi, r.key.lo), true).second) {
      continue;
    }
    const rts::ParsedRequest parsed = rts::parse_request_line(
        *rts::strip_request_line(requests[i].line), problems);
    const rts::SolveSummary staged = solve_by_stages(
        *parsed.request.problem, parsed.request.config, rec, static_cast<std::int64_t>(i));
    if (!(staged == r.summary)) ++mismatches;
  }
  if (mismatches > 0) {
    std::cerr << mismatches << " stage-by-stage solves differ from the service's\n";
    ok = false;
  }
  rec.write(out);
  out.flush();
  RTS_REQUIRE(out.good(), "write failure on --out file");
  return ok ? 0 : 1;
}

int run_trace_offline(const rts::Options& opts) {
  // The `rts schedule --algo ga` + `rts evaluate` pipeline, stage by stage
  // with the CLI's defaults; the GA schedule must equal the CLI's bytes.
  const std::string problem_path = require(opts, "problem");
  const std::string out_path = require(opts, "out");
  rts::GaConfig ga;
  ga.epsilon = opts.get_double("epsilon", 1.0);
  ga.max_iterations = static_cast<std::size_t>(opts.get_int("iters", 1000));
  ga.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  rts::MonteCarloConfig mc;
  mc.realizations = static_cast<std::size_t>(opts.get_int("realizations", 1000));
  mc.seed = static_cast<std::uint64_t>(opts.get_int("mc-seed", 42));
  mc.threads = std::thread::hardware_concurrency();
  const std::string cli_schedule = read_file(require(opts, "schedule"));

  std::ofstream out(out_path);
  RTS_REQUIRE(out.good(), "cannot open --out file");
  SpanRecorder traced(true);
  bool ok = regenerate_problems(require(opts, "problems"), traced, out_path + ".gen");
  for (int mode = 0; mode < 2; ++mode) {
    SpanRecorder untraced(false);
    SpanRecorder& rec = mode == 1 ? traced : untraced;
    const std::int64_t start = now_ns();
    std::optional<rts::ProblemInstance> instance;
    timed(rec, "workload.load", 0, -1,
          [&] { instance.emplace(rts::load_problem_file(problem_path)); });
    timed(rec, "sched.heft", 0, -1, [&] {
      (void)rts::heft_schedule(instance->graph, instance->platform, instance->expected);
    });
    std::optional<rts::GaResult> result;
    const std::int64_t cpu0 = process_cpu_ns();
    timed(rec, "ga.run", 0, -1, [&] {
      result.emplace(
          rts::run_ga(instance->graph, instance->platform, instance->expected, ga));
    });
    rec.count("ga.cpu_ns", 0, static_cast<double>(process_cpu_ns() - cpu0));
    rec.count("ga.generations", 0, static_cast<double>(result->iterations));
    timed(rec, "sim.mc", 0, -1, [&] {
      (void)rts::evaluate_robustness(*instance, result->best_schedule, mc);
    });
    rec.count("sim.realizations", 0, static_cast<double>(mc.realizations));
    out << "W\t" << mode << '\t' << now_ns() - start << "\t1\n";
    std::ostringstream schedule;
    rts::save_schedule(schedule, result->best_schedule);
    if (schedule.str() != cli_schedule) {
      std::cerr << "in-process GA schedule differs from the CLI's\n";
      ok = false;
    }
  }
  traced.write(out);
  out.flush();
  RTS_REQUIRE(out.good(), "write failure on --out file");
  return ok ? 0 : 1;
}

int run_trace_resched(const rts::Options& opts) {
  // `rts resched`'s online replays one realization at a time, with the
  // CLI's configuration, plus timed completion-probability sampling at the
  // plan's start.
  const std::string problem_path = require(opts, "problem");
  const std::string out_path = require(opts, "out");
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  std::ofstream out(out_path);
  RTS_REQUIRE(out.good(), "cannot open --out file");

  SpanRecorder traced(true);
  bool ok = regenerate_problems(require(opts, "problems"), traced, out_path + ".gen");
  const ReschedSetup s = resched_cli_setup(
      problem_path, seed, opts.get_double("oversub", 1.5),
      static_cast<std::size_t>(opts.get_int("realizations", 50)));
  timed(traced, "sched.heft", 0, -1, [&] {
    (void)rts::heft_schedule(s.instance.graph, s.instance.platform, s.instance.expected);
  });
  const std::size_t n = s.instance.task_count();
  const std::size_t m = s.instance.proc_count();
  const rts::Rng root(s.mc.seed);
  for (int mode = 0; mode < 2; ++mode) {
    SpanRecorder untraced(false);
    SpanRecorder& rec = mode == 1 ? traced : untraced;
    const std::int64_t start = now_ns();
    rts::Matrix<double> realized(n, m);
    for (std::size_t i = 0; i < s.mc.realizations; ++i) {
      // The same draws and per-realization seeds as evaluate_resched.
      rts::Rng rng = root.substream(i);
      for (std::size_t t = 0; t < n; ++t) {
        for (std::size_t p = 0; p < m; ++p) {
          realized(t, p) =
              rts::sample_realized_duration(rng, s.instance.bcet(t, p), s.instance.ul(t, p));
        }
      }
      rts::ReschedConfig config = s.online;
      config.drop_seed = rts::hash_combine_u64(s.online.drop_seed, i);
      config.ga.seed = rts::hash_combine_u64(s.online.ga.seed ^ 0x6a5eedull, i);
      config.ga.threads = 1;
      std::optional<rts::ReschedRunResult> run;
      const auto req = static_cast<std::int64_t>(i);
      timed(rec, "resched.replay", req, -1, [&] {
        run.emplace(rts::run_online_reschedule(s.instance, s.plan, realized, config));
      });
      rec.count("resched.resolves", req, static_cast<double>(run->resolves));
      rec.count("resched.ga_generations", req,
                static_cast<double>(run->ga_iterations_total));
      rec.count("resched.dropped", req,
                static_cast<double>(std::count(run->dropped.begin(), run->dropped.end(),
                                               std::uint8_t{1})));
    }
    out << "W\t" << mode << '\t' << now_ns() - start << '\t' << s.mc.realizations << '\n';
  }

  const rts::PartialSchedule at_start{
      s.plan,
      rts::IdVector<rts::TaskId, std::uint8_t>(n, 0),
      rts::IdVector<rts::TaskId, std::uint8_t>(n, 0),
      rts::IdVector<rts::TaskId, double>(n, 0.0),
      rts::IdVector<rts::TaskId, double>(n, 0.0),
      0.0};
  const auto samples = s.online.drop_params.mc_samples;
  for (std::size_t k = 0; k < s.mc.realizations; ++k) {
    rts::Rng rng(rts::hash_combine_u64(s.online.drop_seed, k));
    timed(traced, "resched.completion_mc", static_cast<std::int64_t>(k), -1, [&] {
      (void)rts::sample_completion_finishes(s.instance, at_start, samples, rng);
    });
  }
  traced.write(out);
  out.flush();
  RTS_REQUIRE(out.good(), "write failure on --out file");
  return ok ? 0 : 1;
}

}  // namespace perfbench
