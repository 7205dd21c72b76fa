// Joint speed/sleep solver (core/continuous/joint_sleep) and the exact
// single-processor DP anchor (core/continuous/sleep_dp): golden-value
// fixtures where crawling below s_crit or sleeping strictly beats
// race-to-idle (arithmetic derived in each test), hand-checked DP block
// structure under per-task deadlines, the engine route + memo-key mode
// byte, and two differential-fuzz suites on the shared harness — joint
// never worse than race on random mapped DAGs, joint equal to the exact
// DP on agreeable-deadline single-processor chains.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/continuous/joint_sleep.hpp"
#include "core/continuous/race_to_idle.hpp"
#include "core/continuous/sleep_dp.hpp"
#include "core/problem.hpp"
#include "core/solve.hpp"
#include "engine/instance_key.hpp"
#include "engine/reclaim_engine.hpp"
#include "fuzz_harness.hpp"
#include "graph/generators.hpp"
#include "model/platform.hpp"
#include "sched/execution_graph.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/schedule.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rc = reclaim::core;
namespace re = reclaim::engine;
namespace rg = reclaim::graph;
namespace rm = reclaim::model;
namespace rs = reclaim::sched;
namespace rt = reclaim::testing;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Single-processor instance: app graph mapped whole onto one processor.
struct OneProc {
  rc::Instance instance;
  rs::Mapping mapping{1};
};

OneProc one_proc(rg::Digraph app, double deadline, const rm::PowerModel& power) {
  OneProc m;
  for (rg::NodeId v = 0; v < app.num_nodes(); ++v) m.mapping.assign(0, v);
  auto exec = rs::build_execution_graph(app, m.mapping);
  m.instance = rc::make_instance(std::move(exec), deadline, power);
  return m;
}

/// One E20 instance (bench_e20_joint_sleep): layered 4x4 on 3
/// processors, slack 2.5, s_max = 2, alpha = 3, P_idle = P_stat + 0.5,
/// P_sleep = 0.
re::MappedInstance e20_instance(double p_static, double wake,
                                std::uint64_t seed) {
  const double s_max = 2.0;
  reclaim::util::Rng rng(seed);
  const auto app = rg::make_layered(4, 4, 0.5, rng);
  const auto schedule = rs::list_schedule(app, 3, s_max);
  auto exec = rs::build_execution_graph(app, schedule.mapping);
  const double deadline = 2.5 * rc::min_deadline(exec, s_max);
  const auto power = rm::make_power_model(
      3.0, p_static, rm::make_sleep_spec(p_static + 0.5, 0.0, wake));
  auto instance = rc::make_instance(std::move(exec), deadline, power);
  return {std::move(instance), schedule.mapping};
}

void expect_identical(const rc::Solution& a, const rc::Solution& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.energy, b.energy);  // bit-identical, not approximately equal
  EXPECT_EQ(a.method, b.method);
  ASSERT_EQ(a.speeds.size(), b.speeds.size());
  for (std::size_t i = 0; i < a.speeds.size(); ++i) {
    EXPECT_EQ(a.speeds[i], b.speeds[i]);
  }
}

/// Deadline- and cap-feasibility of a constant-speed solution plus exact
/// busy bookkeeping, checked from first principles.
void expect_schedule_feasible(const rc::Instance& instance,
                              const rc::Solution& s) {
  ASSERT_TRUE(s.feasible);
  const auto& g = instance.exec_graph;
  ASSERT_EQ(s.speeds.size(), g.num_nodes());
  for (rg::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.weight(v) == 0.0) continue;
    EXPECT_GT(s.speeds[v], 0.0);
    EXPECT_LE(s.speeds[v],
              instance.cap_of(v) * (1.0 + rc::kFeasibilityRelTol));
  }
  const auto durations = rs::durations_from_speeds(g, s.speeds);
  EXPECT_TRUE(rs::meets_deadline(g, durations, instance.deadline));
  EXPECT_NEAR(rc::recompute_energy(instance, s), s.energy,
              1e-9 * (1.0 + s.energy));
}

/// Sleep specs the fuzz suites cycle through: idle-cheap, wake-heavy,
/// idle-only (sleeping never pays), and leaky-idle/free-sleep.
const std::vector<rm::SleepSpec>& fuzz_sleep_specs() {
  static const std::vector<rm::SleepSpec> specs = {
      rm::make_sleep_spec(1.0, 0.0, 0.5),
      rm::make_sleep_spec(2.0, 0.1, 2.0),
      rm::make_sleep_spec(0.8, 0.8, 0.0),
      rm::make_sleep_spec(3.0, 0.0, 6.0),
  };
  return specs;
}

}  // namespace

// ---------------------------------------------------------------------------
// Golden values: crawl-below-s_crit and forced-sleep strictly beating race.
// ---------------------------------------------------------------------------

TEST(JointSleep, GoldenCrawlBelowSCritBeatsRace) {
  // One task, w = 1, alpha = 3, P_stat = 2 (s_crit = 1), spec
  // idle = sleep = 1.5, wake = 0 (gap_energy(L) = 1.5 L), D = 4.
  //
  // Crawl runs at the s_crit floor: duration 1, busy = 2*1 + 1 = 3, idle
  // 1.5*3 = 4.5, total 7.5. Racing (duration d <= 1) only loses:
  // f(d) = 1/d^2 + 2d + 1.5(4 - d) = 1/d^2 + 0.5 d + 6 has
  // f'(d) = -2/d^3 + 0.5 < 0 at d = 1, so race-to-idle keeps the crawl.
  // The joint stationary point is *slower* than s_crit:
  // f'(d) = 0 at d* = 4^(1/3) ~ 1.587, i.e. speed 0.25^(1/3) ~ 0.63 =
  // s*_idle = ((P_stat - p_idle)/(alpha-1))^(1/alpha), and
  // f(d*) = 4^(-2/3) + 0.5 * 4^(1/3) + 6 ~ 7.1906 < 7.5.
  rg::Digraph app;
  app.add_node(1.0, "T");
  const auto m = one_proc(
      std::move(app), 4.0,
      rm::make_power_model(3.0, 2.0, rm::make_sleep_spec(1.5, 1.5, 0.0)));
  const auto r = rc::solve_joint_sleep(m.instance, rm::ContinuousModel{kInf},
                                       m.mapping);
  ASSERT_TRUE(r.solution.feasible);
  EXPECT_NEAR(r.race.total(), 7.5, 1e-9);
  EXPECT_TRUE(r.improved);
  EXPECT_EQ(r.solution.method, "joint-sleep");
  const double d_star = std::cbrt(4.0);
  const double expected = 1.0 / (d_star * d_star) + 0.5 * d_star + 6.0;
  EXPECT_NEAR(r.chosen.total(), expected, 1e-9);
  EXPECT_LT(r.chosen.total(), r.race.total() * (1.0 - 1e-3));
  // The accepted speed is genuinely below the s_crit floor.
  EXPECT_NEAR(r.solution.speeds[0], 1.0 / d_star, 1e-6);
  EXPECT_LT(r.solution.speeds[0], 1.0);
  expect_schedule_feasible(m.instance, r.solution);

  // The exact DP lands on the same optimum.
  const auto dp = rc::solve_sleep_dp(m.instance, rm::ContinuousModel{kInf});
  ASSERT_TRUE(dp.solution.feasible);
  EXPECT_NEAR(dp.chosen.total(), expected, 1e-9);
  EXPECT_EQ(dp.blocks, 1u);
  EXPECT_NEAR(dp.busy_end, d_star, 1e-9);
}

TEST(JointSleep, GoldenForcedSleepBeatsRace) {
  // One task, w = 1, alpha = 3, P_stat = 2, spec idle = 4, sleep = 0.5,
  // wake = 2 (break-even 2/3.5 ~ 0.571), D = 3.
  //
  // Crawl: duration 1 at s_crit, busy 3; the gap of length 2 sleeps:
  // min(4*2, 0.5*2 + 2) = 3 -> total 6. On the sleep branch the total is
  // f(d) = 1/d^2 + 2d + 0.5(3 - d) + 2 = 1/d^2 + 1.5 d + 3.5 with
  // f'(1) = -2 + 1.5 < 0: racing loses, stretching wins. Stationary at
  // d* = (4/3)^(1/3) ~ 1.1006 — speed s*_sleep = 0.75^(1/3) ~ 0.909,
  // again below s_crit = 1 — and the gap (length ~1.899) stays beyond
  // break-even, so f(d*) ~ 5.9764 < 6 is exact.
  rg::Digraph app;
  app.add_node(1.0, "T");
  const auto m = one_proc(
      std::move(app), 3.0,
      rm::make_power_model(3.0, 2.0, rm::make_sleep_spec(4.0, 0.5, 2.0)));
  const auto r = rc::solve_joint_sleep(m.instance, rm::ContinuousModel{kInf},
                                       m.mapping);
  ASSERT_TRUE(r.solution.feasible);
  EXPECT_NEAR(r.race.total(), 6.0, 1e-9);
  EXPECT_TRUE(r.improved);
  const double d_star = std::cbrt(4.0 / 3.0);
  const double expected =
      1.0 / (d_star * d_star) + 2.0 * d_star + 0.5 * (3.0 - d_star) + 2.0;
  EXPECT_NEAR(r.chosen.total(), expected, 1e-9);
  EXPECT_LT(r.chosen.total(), r.race.total() * (1.0 - 1e-4));
  expect_schedule_feasible(m.instance, r.solution);
  // The surviving tail gap is a sleeping gap.
  ASSERT_EQ(r.gaps.size(), 1u);
  EXPECT_EQ(r.gaps[0].state, rc::GapState::kSleep);

  const auto dp = rc::solve_sleep_dp(m.instance, rm::ContinuousModel{kInf});
  ASSERT_TRUE(dp.solution.feasible);
  EXPECT_NEAR(dp.chosen.total(), expected, 1e-9);
}

TEST(JointSleep, GoldenCommonSpeedCrawlOnTwoTaskChain) {
  // Chain of two unit tasks on one processor, alpha = 3, P_stat = 2, spec
  // idle = sleep = 1.5, wake = 0, D = 6. Crawl: both at s_crit, busy 6,
  // idle 1.5*4 = 6 -> total 12. With a common per-task duration d the
  // total is f(d) = 2(1/d^2 + 2d) + 1.5(6 - 2d) = 2/d^2 + d + 9,
  // stationary at d* = 4^(1/3) per task (the same s*_idle speed), so
  // f(d*) = 2 * 4^(-2/3) + 4^(1/3) + 9 ~ 11.3811 < 12 — the
  // whole-processor common-speed move must find it.
  const auto m = one_proc(
      rg::make_chain({1.0, 1.0}), 6.0,
      rm::make_power_model(3.0, 2.0, rm::make_sleep_spec(1.5, 1.5, 0.0)));
  const auto r = rc::solve_joint_sleep(m.instance, rm::ContinuousModel{kInf},
                                       m.mapping);
  ASSERT_TRUE(r.solution.feasible);
  EXPECT_NEAR(r.race.total(), 12.0, 1e-9);
  EXPECT_TRUE(r.improved);
  const double d_star = std::cbrt(4.0);
  const double expected = 2.0 / (d_star * d_star) + d_star + 9.0;
  EXPECT_NEAR(r.chosen.total(), expected, 1e-9);
  EXPECT_LT(r.chosen.total(), r.race.total() * (1.0 - 1e-3));
  expect_schedule_feasible(m.instance, r.solution);

  const auto dp = rc::solve_sleep_dp(m.instance, rm::ContinuousModel{kInf});
  ASSERT_TRUE(dp.solution.feasible);
  EXPECT_NEAR(dp.chosen.total(), expected, 1e-9);
  EXPECT_EQ(dp.blocks, 1u);
  EXPECT_NEAR(dp.busy_end, 2.0 * d_star, 1e-9);
}

TEST(JointSleep, GoldenStationaryDurationOnTheDeadline) {
  // The crawl fixture above with D = 4^(1/3): the stationary duration d*
  // equals the window exactly, so the per-task move's skip of provably
  // late speeds must still evaluate that candidate. No gap survives:
  // total = 1/d*^2 + 2 d* = 4^(-2/3) + 2 * 4^(1/3) ~ 3.5717 at speed 1/D,
  // against the crawl's 3 + 1.5 (D - 1) ~ 3.881.
  rg::Digraph app;
  app.add_node(1.0, "T");
  const double deadline = std::cbrt(4.0);
  const auto m = one_proc(
      std::move(app), deadline,
      rm::make_power_model(3.0, 2.0, rm::make_sleep_spec(1.5, 1.5, 0.0)));
  const auto r = rc::solve_joint_sleep(m.instance, rm::ContinuousModel{kInf},
                                       m.mapping);
  ASSERT_TRUE(r.solution.feasible);
  EXPECT_TRUE(r.improved);
  EXPECT_NEAR(r.chosen.total(), 3.57165236692845, 1e-9);
  EXPECT_NEAR(r.solution.speeds[0], 1.0 / deadline, 1e-9);
  expect_schedule_feasible(m.instance, r.solution);
}

TEST(JointSleep, EvaluationCountGuard) {
  // An E20 instance (P_stat = 1, E_wake = 8) where the joint moves win.
  // Without the skip of provably late per-task speeds the refiner spent
  // 1527 evaluations here, with it 360. The count is deterministic, so
  // this guard cannot flake.
  const auto m = e20_instance(1.0, 8.0, 2000);
  const rm::ContinuousModel model{2.0};
  const auto race = rc::solve_race_to_idle(m.instance, model, m.mapping);
  const auto joint = rc::solve_joint_sleep(m.instance, model, m.mapping);
  ASSERT_TRUE(joint.improved);
  EXPECT_LE(joint.solution.iterations - race.solution.iterations, 600u);
}

TEST(JointSleep, SkippedSpeedsLeaveAnswersUnchanged) {
  // Totals of the refiner from before it skipped provably late speeds,
  // on E20 instances (P_stat = 1) that move when the skip is unsound:
  // seed 2006 by ~0.2% if speeds 0.1% inside the deadline are skipped,
  // seed 2003 by ~2e-9 if the 1e-9 * window band past it is skipped,
  // seed 2050 by ~1% if the path timing is not refreshed on accept.
  struct Pin {
    double wake;
    std::uint64_t seed;
    double total;
  };
  const Pin pins[] = {{2.0, 2006, 180.92290177260142},
                      {8.0, 2003, 142.35671261273095},
                      {2.0, 2050, 143.47964622809621}};
  const rm::ContinuousModel model{2.0};
  for (const Pin& pin : pins) {
    const auto m = e20_instance(1.0, pin.wake, pin.seed);
    const auto r = rc::solve_joint_sleep(m.instance, model, m.mapping);
    ASSERT_TRUE(r.improved) << "seed " << pin.seed;
    EXPECT_NEAR(r.chosen.total(), pin.total, 5e-10 * pin.total)
        << "seed " << pin.seed;
  }
}

TEST(JointSleep, ZeroSpecReturnsRaceBitIdentically) {
  reclaim::util::Rng rng(211);
  const auto app = rg::make_layered(3, 3, 0.5, rng);
  const auto mapping = rs::list_schedule(app, 2).mapping;
  auto exec = rs::build_execution_graph(app, mapping);
  const double deadline = 1.5 * rc::min_deadline(exec, 2.0);
  const auto instance = rc::make_instance(std::move(exec), deadline,
                                          rm::make_power_model(3.0, 1.0));
  const auto race =
      rc::solve_race_to_idle(instance, rm::ContinuousModel{2.0}, mapping);
  const auto joint =
      rc::solve_joint_sleep(instance, rm::ContinuousModel{2.0}, mapping);
  expect_identical(race.solution, joint.solution);
  EXPECT_FALSE(joint.improved);
  EXPECT_TRUE(joint.gaps.empty());
  EXPECT_EQ(joint.chosen.total(), race.chosen.total());
}

TEST(JointSleep, KeptCrawlReportsTheBarrierWorkMeasure) {
  // A sleep spec under which sleeping never pays: the race and the joint
  // moves evaluate many candidates but beat nothing, so the crawl is
  // returned — with solve_continuous's Newton steps as its iterations, not
  // inflated by the refiners' evaluations (Solution::iterations is the
  // work measure of the solver named in `method`).
  reclaim::util::Rng rng(223);
  const auto app = rg::make_layered(4, 4, 0.5, rng);
  const auto mapping = rs::list_schedule(app, 2).mapping;
  auto exec = rs::build_execution_graph(app, mapping);
  const double deadline = 1.6 * rc::min_deadline(exec, 2.0);
  const auto instance = rc::make_instance(
      std::move(exec), deadline,
      rm::make_power_model(3.0, 0.1, rm::make_sleep_spec(1.0, 1.0, 0.0)));
  const rm::ContinuousModel model{2.0};
  const auto crawl = rc::solve_continuous(instance, model);
  ASSERT_EQ(crawl.method, "numeric-barrier");
  ASSERT_GT(crawl.iterations, 0u);

  const auto race = rc::solve_race_to_idle(instance, model, mapping);
  ASSERT_FALSE(race.raced);
  EXPECT_EQ(race.solution.method, crawl.method);
  EXPECT_EQ(race.solution.iterations, crawl.iterations);

  const auto joint = rc::solve_joint_sleep(instance, model, mapping);
  ASSERT_FALSE(joint.improved);
  EXPECT_EQ(joint.solution.method, crawl.method);
  EXPECT_EQ(joint.solution.iterations, crawl.iterations);

  re::ReclaimEngine engine({.threads = 1});
  for (const rc::SleepMode mode :
       {rc::SleepMode::kRace, rc::SleepMode::kJoint}) {
    rc::SolveOptions options;
    options.sleep_mode = mode;
    const auto served = engine.solve_one(re::MappedInstance{instance, mapping},
                                         rm::EnergyModel{model}, options);
    EXPECT_EQ(served.method, crawl.method);
    EXPECT_EQ(served.iterations, crawl.iterations);
  }
}

// ---------------------------------------------------------------------------
// The exact DP: block structure, domain guards, infeasibility.
// ---------------------------------------------------------------------------

TEST(SleepDp, BindingPrefixDeadlineForcesTwoBlocks) {
  // Chain w = {1, 1}, alpha = 3, P_stat = 0, spec idle = 1, sleep = 0,
  // wake = 10 (break-even 10 > D: gaps always idle), D = 4, per-task
  // deadlines {1, 4}. Binding the prefix at d_1 = 1: task 1 at speed 1
  // (busy 1), then the tail absorbs the window (P_stat = 0 < p_idle, so
  // finishing late always pays): task 2 over [1, 4] at speed 1/3, busy
  // (1/3)^2 * 3 = 1/9, no gap -> total 1 + 1/9. The unbound common-speed
  // alternative must run both tasks at speed 1 to honor d_1 (busy 2,
  // gap 2 -> total 4): the DP must pick the genuine two-block split.
  const auto m = one_proc(
      rg::make_chain({1.0, 1.0}), 4.0,
      rm::make_power_model(3.0, 0.0, rm::make_sleep_spec(1.0, 0.0, 10.0)));
  rc::SleepDpOptions options;
  options.task_deadlines = {1.0, 4.0};
  const auto dp =
      rc::solve_sleep_dp(m.instance, rm::ContinuousModel{kInf}, options);
  ASSERT_TRUE(dp.solution.feasible);
  EXPECT_NEAR(dp.chosen.total(), 1.0 + 1.0 / 9.0, 1e-12);
  EXPECT_EQ(dp.blocks, 2u);
  EXPECT_NEAR(dp.busy_end, 4.0, 1e-12);
  EXPECT_EQ(dp.chosen.idle, 0.0);
  ASSERT_EQ(dp.solution.speeds.size(), 2u);
  EXPECT_NEAR(dp.solution.speeds[0], 1.0, 1e-12);
  EXPECT_NEAR(dp.solution.speeds[1], 1.0 / 3.0, 1e-12);
}

TEST(SleepDp, ThrowsOffTheEligibilityDomain) {
  const auto power =
      rm::make_power_model(3.0, 1.0, rm::make_sleep_spec(1.0, 0.0, 1.0));
  // Not a chain.
  reclaim::util::Rng rng(223);
  const auto fork = one_proc(rg::make_fork(3, rng), 10.0, power);
  EXPECT_THROW(
      (void)rc::solve_sleep_dp(fork.instance, rm::ContinuousModel{kInf}),
      reclaim::InvalidArgument);
  // More than one processor.
  auto app = rg::make_chain({1.0, 1.0});
  rs::Mapping mapping(2);
  mapping.assign(0, 0);
  mapping.assign(1, 1);
  const auto exec = rs::build_execution_graph(app, mapping);
  const auto two_proc = rc::make_instance(
      exec, 10.0, rm::Platform({{power, kInf}, {power, kInf}}), mapping);
  EXPECT_THROW((void)rc::solve_sleep_dp(two_proc, rm::ContinuousModel{kInf}),
               reclaim::InvalidArgument);
  // Non-agreeable or out-of-range task deadlines.
  const auto chain = one_proc(rg::make_chain({1.0, 1.0}), 4.0, power);
  rc::SleepDpOptions bad;
  bad.task_deadlines = {4.0, 1.0};
  EXPECT_THROW((void)rc::solve_sleep_dp(chain.instance,
                                        rm::ContinuousModel{kInf}, bad),
               reclaim::InvalidArgument);
  bad.task_deadlines = {1.0, 5.0};
  EXPECT_THROW((void)rc::solve_sleep_dp(chain.instance,
                                        rm::ContinuousModel{kInf}, bad),
               reclaim::InvalidArgument);
  bad.task_deadlines = {1.0};
  EXPECT_THROW((void)rc::solve_sleep_dp(chain.instance,
                                        rm::ContinuousModel{kInf}, bad),
               reclaim::InvalidArgument);
}

TEST(SleepDp, CapBoundInstanceIsInfeasibleNotAThrow) {
  auto app = rg::make_chain({10.0});
  rs::Mapping mapping(1);
  mapping.assign(0, 0);
  const auto exec = rs::build_execution_graph(app, mapping);
  const auto power =
      rm::make_power_model(3.0, 1.0, rm::make_sleep_spec(1.0, 0.0, 1.0));
  const auto instance =
      rc::make_instance(exec, 5.0, rm::Platform({{power, 1.0}}), mapping);
  const auto dp = rc::solve_sleep_dp(instance, rm::ContinuousModel{kInf});
  EXPECT_FALSE(dp.solution.feasible);
  EXPECT_EQ(dp.solution.method, "sleep-dp");
}

// ---------------------------------------------------------------------------
// Engine route, memo key, stats.
// ---------------------------------------------------------------------------

TEST(JointSleepEngine, MemoKeyDistinguishesSleepModes) {
  reclaim::util::Rng rng(227);
  const auto app = rg::make_chain(4, rng);
  const auto mapping = rs::list_schedule(app, 1).mapping;
  auto exec = rs::build_execution_graph(app, mapping);
  const auto instance = rc::make_instance(
      std::move(exec), 10.0,
      rm::make_power_model(3.0, 1.0, rm::make_sleep_spec(1.0, 0.0, 1.0)));
  const rm::EnergyModel model = rm::ContinuousModel{2.0};
  rc::SolveOptions race_opts;
  rc::SolveOptions joint_opts;
  joint_opts.sleep_mode = rc::SleepMode::kJoint;
  rc::SolveOptions dp_opts;
  dp_opts.sleep_mode = rc::SleepMode::kDp;
  const auto k_race = re::instance_key(instance, model, race_opts);
  const auto k_joint = re::instance_key(instance, model, joint_opts);
  const auto k_dp = re::instance_key(instance, model, dp_opts);
  EXPECT_NE(k_race, k_joint);
  EXPECT_NE(k_race, k_dp);
  EXPECT_NE(k_joint, k_dp);
}

TEST(JointSleepEngine, JointRouteCountsAndMemoizes) {
  // The golden crawl fixture through the engine: kJoint must run the
  // joint refiner (counter + method), beat the kRace route's energy, and
  // answer repeats from the memo without re-running it.
  rg::Digraph app;
  app.add_node(1.0, "T");
  rs::Mapping mapping(1);
  mapping.assign(0, 0);
  auto exec = rs::build_execution_graph(app, mapping);
  const auto instance = rc::make_instance(
      std::move(exec), 4.0,
      rm::make_power_model(3.0, 2.0, rm::make_sleep_spec(1.5, 1.5, 0.0)));
  const re::MappedInstance mapped{instance, mapping};
  const rm::EnergyModel model = rm::ContinuousModel{kInf};

  re::ReclaimEngine engine({.threads = 1});
  rc::SolveOptions joint_opts;
  joint_opts.sleep_mode = rc::SleepMode::kJoint;
  const auto joint = engine.solve_one(mapped, model, joint_opts);
  ASSERT_TRUE(joint.feasible);
  EXPECT_EQ(joint.method, "joint-sleep");
  EXPECT_EQ(engine.stats().joint_solves, 1u);
  EXPECT_EQ(engine.stats().joint_improved, 1u);

  const auto race = engine.solve_one(mapped, model, rc::SolveOptions{});
  ASSERT_TRUE(race.feasible);
  EXPECT_EQ(engine.stats().joint_solves, 1u);  // kRace took the race route

  const auto again = engine.solve_one(mapped, model, joint_opts);
  expect_identical(joint, again);
  EXPECT_EQ(engine.stats().joint_solves, 1u);  // memo hit, not a re-run
  EXPECT_GE(engine.stats().memo_hits, 1u);

  engine.clear_caches();
  EXPECT_EQ(engine.stats().joint_solves, 0u);
  EXPECT_EQ(engine.stats().joint_improved, 0u);
}

TEST(JointSleepEngine, DpRouteDispatchesTheOracle) {
  const auto m = one_proc(
      rg::make_chain({1.0, 1.0}), 6.0,
      rm::make_power_model(3.0, 2.0, rm::make_sleep_spec(1.5, 1.5, 0.0)));
  const re::MappedInstance mapped{m.instance, m.mapping};
  re::ReclaimEngine engine({.threads = 1});
  rc::SolveOptions dp_opts;
  dp_opts.sleep_mode = rc::SleepMode::kDp;
  const auto dp =
      engine.solve_one(mapped, rm::EnergyModel{rm::ContinuousModel{kInf}},
                       dp_opts);
  ASSERT_TRUE(dp.feasible);
  EXPECT_EQ(dp.method, "sleep-dp");
  // Matches the direct oracle call bit-for-bit.
  const auto direct =
      rc::solve_sleep_dp(m.instance, rm::ContinuousModel{kInf});
  expect_identical(dp, direct.solution);
}

TEST(SolveRoute, MappingIsInertWhereItPricesNothing) {
  // prices_mapping is false under kDp and under every mode-based model, so
  // handing core::solve the mapping changes nothing: bit for bit the
  // unmapped answer, work measure included.
  const auto m = one_proc(
      rg::make_chain({1.0, 2.0, 0.5}), 6.0,
      rm::make_power_model(3.0, 1.0, rm::make_sleep_spec(1.5, 0.5, 0.5)));
  rc::SolveOptions dp_opts;
  dp_opts.sleep_mode = rc::SleepMode::kDp;
  const rm::ModeSet modes({0.25, 0.5, 1.0, 2.0});
  const struct {
    rm::EnergyModel model;
    rc::SolveOptions options;
  } cases[] = {
      {rm::ContinuousModel{kInf}, dp_opts},
      {rm::DiscreteModel{modes}, rc::SolveOptions{}},
      {rm::VddHoppingModel{modes}, rc::SolveOptions{}},
  };
  for (const auto& c : cases) {
    EXPECT_FALSE(rc::prices_mapping(m.instance, c.model, c.options));
    const auto plain = rc::solve(m.instance, c.model, c.options);
    const auto mapped =
        rc::solve(m.instance, c.model, c.options, nullptr, &m.mapping);
    ASSERT_TRUE(plain.feasible) << plain.method;
    expect_identical(mapped, plain);
    EXPECT_EQ(mapped.iterations, plain.iterations);
  }
  EXPECT_TRUE(rc::prices_mapping(m.instance, rm::ContinuousModel{kInf},
                                 rc::SolveOptions{}));
}

// ---------------------------------------------------------------------------
// Differential fuzz on the shared harness.
// ---------------------------------------------------------------------------

// Joint never worse than race-to-idle on random mapped DAGs: chains,
// forks and random out-trees across 1-3 processors, cycling through the
// sleep-spec family. Every trial must satisfy the acceptance invariant
// joint <= race; the sweep must also find a healthy number of strict
// improvements (the crawl-below-s_crit moves are genuinely reachable).
// core::solve handed the mapping is each refiner bit for bit, and without
// one answers with the crawl.
TEST(JointSleepFuzz, NeverWorseThanRaceToIdle) {
  const double s_top = 2.0;
  const std::size_t trials = rt::fuzz_trials(500);

  rt::FuzzOptions fuzz;
  fuzz.seed = 20260809;
  fuzz.trials = trials;
  fuzz.s_top = s_top;
  fuzz.app = [](std::size_t trial, reclaim::util::Rng& rng) {
    switch (trial % 3) {
      case 0:
        return rg::make_chain(2 + trial % 5, rng);
      case 1:
        return rg::make_fork(2 + trial % 4, rng);
      default:
        return rg::make_random_out_tree(3 + trial % 5, rng);
    }
  };
  fuzz.procs = [](std::size_t trial) { return 1 + trial % 3; };
  fuzz.platform = [&](std::size_t trial, std::size_t procs,
                      reclaim::util::Rng& rng) {
    // Homogeneous sleep-enabled platform: one drawn curve replicated on
    // every processor, sleep spec cycling through the family.
    const double alpha =
        2.0 + 0.5 * static_cast<double>(rng.uniform_int(0, 2));
    const double p_static = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.1, 3.0);
    const double cap = rng.bernoulli(0.5) ? kInf : s_top;
    const auto& specs = fuzz_sleep_specs();
    const auto power =
        rm::make_power_model(alpha, p_static, specs[trial % specs.size()]);
    return rm::Platform(
        std::vector<rm::ProcessorSpec>(procs, {power, cap}));
  };

  std::size_t improved = 0;
  rt::run_fuzz(fuzz, [&](const rt::FuzzTrial& t) {
    const rm::ContinuousModel model{s_top};
    const auto race =
        rc::solve_race_to_idle(t.instance, model, t.mapping);
    const auto joint = rc::solve_joint_sleep(t.instance, model, t.mapping);
    ASSERT_TRUE(race.solution.feasible) << "trial " << t.index;
    ASSERT_TRUE(joint.solution.feasible) << "trial " << t.index;
    // The acceptance invariant: joint never worse than race-to-idle.
    EXPECT_LE(joint.chosen.total(),
              race.chosen.total() * (1.0 + rc::kFeasibilityRelTol))
        << "trial " << t.index;
    // The anchor the joint refined is the race result itself.
    EXPECT_EQ(joint.race.total(), race.chosen.total()) << "trial " << t.index;
    expect_schedule_feasible(t.instance, joint.solution);
    if (joint.improved) {
      ++improved;
      EXPECT_EQ(joint.solution.method, "joint-sleep") << "trial " << t.index;
    }
    rc::SolveOptions joint_opts;
    joint_opts.sleep_mode = rc::SleepMode::kJoint;
    const auto routed_race =
        rc::solve(t.instance, model, rc::SolveOptions{}, nullptr, &t.mapping);
    const auto routed_joint =
        rc::solve(t.instance, model, joint_opts, nullptr, &t.mapping);
    expect_identical(routed_race, race.solution);
    expect_identical(routed_joint, joint.solution);
    EXPECT_EQ(routed_race.iterations, race.solution.iterations);
    EXPECT_EQ(routed_joint.iterations, joint.solution.iterations);
    const auto crawl = rc::solve_continuous(t.instance, model);
    expect_identical(rc::solve(t.instance, model), crawl);
    expect_identical(rc::solve(t.instance, model, joint_opts), crawl);
  });
  // The sweep must genuinely exercise the improving moves — but only a
  // full-length run can meet the full-run quota.
  if (trials >= 500) {
    EXPECT_GE(improved, 50u);
  }
}

// Joint equals the exact Baptiste-Chrobak-Durr DP on its eligibility
// domain: single-processor homogeneous chains with the common deadline
// (trivially agreeable). The joint refiner's whole-processor move scans
// the same event-point candidates the DP proves sufficient, so the two
// totals agree to fp tolerance — an exact anchor for the heuristic.
TEST(JointSleepFuzz, MatchesExactDpOnSingleProcChains) {
  const double s_top = 2.0;
  const std::size_t trials = rt::fuzz_trials(200);

  rt::FuzzOptions fuzz;
  fuzz.seed = 20260811;
  fuzz.trials = trials;
  fuzz.s_top = s_top;
  fuzz.app = [](std::size_t trial, reclaim::util::Rng& rng) {
    return rg::make_chain(2 + trial % 6, rng);
  };
  fuzz.procs = [](std::size_t) { return std::size_t{1}; };
  fuzz.platform = [&](std::size_t trial, std::size_t,
                      reclaim::util::Rng& rng) {
    const double alpha =
        2.0 + 0.5 * static_cast<double>(rng.uniform_int(0, 2));
    const double p_static = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.1, 3.0);
    const double cap = rng.bernoulli(0.5) ? kInf : s_top;
    const auto& specs = fuzz_sleep_specs();
    const auto power =
        rm::make_power_model(alpha, p_static, specs[trial % specs.size()]);
    return rm::Platform({{power, cap}});
  };

  rt::run_fuzz(fuzz, [&](const rt::FuzzTrial& t) {
    const rm::ContinuousModel model{s_top};
    const auto dp = rc::solve_sleep_dp(t.instance, model);
    const auto joint = rc::solve_joint_sleep(t.instance, model, t.mapping);
    ASSERT_TRUE(dp.solution.feasible) << "trial " << t.index;
    ASSERT_TRUE(joint.solution.feasible) << "trial " << t.index;
    const double tol =
        rc::kFeasibilityRelTol * (1.0 + dp.chosen.total());
    EXPECT_NEAR(joint.chosen.total(), dp.chosen.total(), tol)
        << "trial " << t.index;
    expect_schedule_feasible(t.instance, joint.solution);
  });
}
