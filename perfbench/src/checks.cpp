// In-process references the benchmark checks the programs' outputs against.

#include <algorithm>
#include <atomic>
#include <iostream>
#include <sstream>
#include <thread>

#include "check/validator.hpp"
#include "common.hpp"
#include "core/report_io.hpp"
#include "core/robust_scheduler.hpp"
#include "net/serve_protocol.hpp"
#include "sched/heft.hpp"
#include "service/fingerprint.hpp"
#include "sim/monte_carlo.hpp"
#include "util/error.hpp"
#include "workload/deadlines.hpp"
#include "workload/serialization.hpp"

namespace perfbench {

int run_reference(const rts::Options& opts) {
  // One reference result line per request line, rendered with job index 0
  // and cache_hit=false: the caller compares the server's lines with the
  // job index and the cache flag normalized. The solve runs through
  // rts::robust_schedule directly, not through the service.
  const std::vector<std::string> lines = read_lines(require(opts, "requests"));
  rts::ProblemCache problems;
  std::vector<rts::ParsedRequest> parsed;
  parsed.reserve(lines.size());
  for (const std::string& line : lines) {
    const auto payload = rts::strip_request_line(line);
    RTS_REQUIRE(payload.has_value(), "empty reference request line");
    parsed.push_back(rts::parse_request_line(*payload, problems));
  }

  std::vector<std::string> rendered(parsed.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  const auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < parsed.size();) {
      try {
        const rts::ParsedRequest& p = parsed[i];
        rts::JobResult result;
        result.key = rts::job_digest(*p.request.problem, p.request.config);
        // Thread counts are pure performance knobs (results are
        // bit-identical for any value) and are not part of the digest;
        // one thread per solve keeps the reference pool from
        // oversubscribing the machine.
        rts::RobustSchedulerConfig config = p.request.config;
        config.ga.threads = 1;
        config.mc.threads = 1;
        const rts::RobustScheduleOutcome o =
            rts::robust_schedule(*p.request.problem, config);
        rts::SolveSummary& s = result.summary;
        s.heft_makespan = o.heft_makespan;
        s.makespan = o.eval.makespan;
        s.avg_slack = o.eval.avg_slack;
        s.mean_tardiness = o.report.mean_tardiness;
        s.miss_rate = o.report.miss_rate;
        s.r1 = o.report.r1;
        s.r2 = o.report.r2;
        s.heft_r1 = o.heft_report.r1;
        s.heft_r2 = o.heft_report.r2;
        s.ga_iterations = o.ga_iterations;
        rendered[i] = rts::render_result_line(0, p.problem_path, result);
      } catch (const std::exception& e) {
        std::cerr << "reference solve failed: " << e.what() << "\n";
        failed = true;
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1U, std::thread::hardware_concurrency()); ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) t.join();
  if (failed) return 1;

  std::ofstream out(require(opts, "out"));
  RTS_REQUIRE(out.good(), "cannot open --out file");
  for (const std::string& line : rendered) out << line << '\n';
  out.flush();
  RTS_REQUIRE(out.good(), "write failure on --out file");
  return 0;
}

int run_check_offline(const rts::Options& opts) {
  // An `rts schedule` output must pass the ScheduleValidator, and the
  // `rts evaluate --json` report must equal the in-process report byte for
  // byte (same defaults as the CLI: hardware threads, default lanes).
  const rts::ProblemInstance instance = rts::load_problem_file(require(opts, "problem"));
  std::ifstream sched_file(require(opts, "schedule"));
  RTS_REQUIRE(sched_file.good(), "cannot open --schedule file");
  const rts::Schedule schedule = rts::load_schedule(sched_file);

  const rts::ScheduleValidator validator(instance.graph, instance.platform);
  const rts::ValidationReport report = validator.validate(schedule, instance.expected);
  if (!report.ok()) {
    std::cerr << "schedule failed validation:\n" << report.to_string();
    return 1;
  }

  rts::MonteCarloConfig mc;
  mc.realizations = static_cast<std::size_t>(opts.get_int("realizations", 1000));
  mc.seed = static_cast<std::uint64_t>(opts.get_int("mc-seed", 42));
  mc.threads = std::thread::hardware_concurrency();
  const std::string expected =
      rts::robustness_to_json(rts::evaluate_robustness(instance, schedule, mc)) + "\n";
  if (read_file(require(opts, "eval-json")) != expected) {
    std::cerr << "evaluate report differs from the in-process reference\n";
    return 1;
  }
  return 0;
}

ReschedSetup resched_cli_setup(const std::string& problem_path, std::uint64_t seed,
                               double oversubscription, std::size_t realizations) {
  // Mirrors cmd_resched's defaults: deadline-risk trigger, probabilistic
  // dropping, warm GA restarts, 32 completion samples per drop decision.
  rts::ProblemInstance instance = rts::load_problem_file(problem_path);
  if (!instance.has_deadlines()) {
    rts::DeadlineParams params;
    params.oversubscription = oversubscription;
    rts::Rng rng(seed ^ 0xd11eul);
    rts::assign_deadlines(instance, params, rng);
  }
  rts::Schedule plan =
      rts::heft_schedule(instance.graph, instance.platform, instance.expected).schedule;
  rts::ReschedConfig c;
  c.trigger = rts::TriggerKind::kDeadlineRisk;
  c.slack_threshold = 0.05;
  c.cadence = 10;
  c.max_resolves = 3;
  c.drop = rts::DropPolicyKind::kProbabilistic;
  c.drop_params.min_completion_prob = 0.25;
  c.drop_params.mc_samples = 32;
  c.drop_fraction_cap = 0.25;
  c.drop_seed = seed ^ 0xd309ul;
  c.ga.seed = seed;
  c.warm_start = true;
  c.validate = false;
  ReschedSetup s{std::move(instance), std::move(plan), c, c, {}};
  s.one_shot.max_resolves = 0;
  s.one_shot.drop = rts::DropPolicyKind::kNever;
  s.mc.realizations = realizations;
  s.mc.seed = seed ^ 0x4d43ul;
  s.mc.threads = 0;
  return s;
}

int run_check_resched(const rts::Options& opts) {
  const ReschedSetup s = resched_cli_setup(
      require(opts, "problem"), static_cast<std::uint64_t>(opts.get_int("seed", 1)),
      opts.get_double("oversub", 1.5),
      static_cast<std::size_t>(opts.get_int("realizations", 50)));
  const std::string expected =
      "{\"one_shot\":" +
      rts::resched_report_to_json(rts::evaluate_resched(s.instance, s.plan, s.one_shot, s.mc)) +
      ",\"resched\":" +
      rts::resched_report_to_json(rts::evaluate_resched(s.instance, s.plan, s.online, s.mc)) +
      "}\n";
  if (read_file(require(opts, "json")) != expected) {
    std::cerr << "resched report differs from the in-process reference\n";
    return 1;
  }
  return 0;
}

}  // namespace perfbench
