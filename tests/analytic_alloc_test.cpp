// The adaptive policies call num_SCP / num_CCP at every checkpoint
// decision, so the solve must stay off the heap, and so must a whole
// Monte-Carlo run around it.  This binary replaces the global operator
// new with a counting one and asserts that no allocation happens
// inside the analytic calls or inside simulate_seeded.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "analytic/num_checkpoints.hpp"
#include "policy/factory.hpp"
#include "sim/engine.hpp"

namespace {
long g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace adacheck::analytic {
namespace {

/// Heap allocations made while running `body`.
template <typename Body>
long allocations_in(Body&& body) {
  const long before = g_allocations;
  body();
  return g_allocations - before;
}

TEST(AnalyticAllocations, CountingNewSeesAllocations) {
  // The counter is live (a direct call, which the optimizer may not
  // elide the way it can a new-expression).
  EXPECT_EQ(allocations_in([] { ::operator delete(::operator new(64)); }), 1);
}

TEST(AnalyticAllocations, RenewalSolveIsAllocationFree) {
  const auto scp_costs = model::CheckpointCosts::paper_scp_flavor();
  const auto ccp_costs = model::CheckpointCosts::paper_ccp_flavor();
  double sink = 0.0;
  const long allocations = allocations_in([&] {
    for (double interval : {30.0, 125.0, 500.0, 2'000.0, 10'000.0}) {
      for (double lambda : {1e-4, 1.4e-3, 2e-3, 2e-2}) {
        const ScpRenewalParams scp{interval, lambda, scp_costs};
        const CcpRenewalParams ccp{interval, lambda, ccp_costs};
        sink += scp_expected_time(scp, 1) + scp_expected_time(scp, 64);
        sink += num_scp(scp) + num_ccp(ccp);
      }
    }
    // lambda * T = 1000: the costs overflow and the Fig. 2 fallback runs.
    sink += num_scp({20'000.0, 0.05, scp_costs});
    sink += num_ccp({20'000.0, 0.05, ccp_costs});
  });
  EXPECT_EQ(allocations, 0);
  EXPECT_GT(sink, 0.0);
}

TEST(AnalyticAllocations, WholeEngineRunIsAllocationFree) {
  // As in a Monte-Carlo chunk: one policy instance, re-armed through
  // reset() before every run, so its decisions and its inner-solve
  // memo are inside the measured region.
  for (int processors : {2, 3}) {
    for (const char* scheme : {"Poisson", "k-f-t", "A_D", "A_D_S", "A_D_C"}) {
      const bool ccp = std::string(scheme) == "A_D_C";
      const sim::SimSetup setup{
          model::task_from_utilization(0.78, 1.0, 10'000.0, 5),
          ccp ? model::CheckpointCosts::paper_ccp_flavor()
              : model::CheckpointCosts::paper_scp_flavor(),
          model::DvsProcessor::two_speed(2.0),
          model::FaultModel{1.6e-3, false, processors}};
      auto policy = policy::make_policy(scheme);
      bool every_reset = true;
      int faults = 0;
      double sink = 0.0;
      const long allocations = allocations_in([&] {
        for (std::uint64_t seed = 1; seed <= 200; ++seed) {
          every_reset = policy->reset() && every_reset;
          const auto result = sim::simulate_seeded(setup, *policy, seed);
          faults += result.faults;
          sink += result.energy;
        }
      });
      SCOPED_TRACE(std::string(scheme) + " N=" + std::to_string(processors));
      EXPECT_TRUE(every_reset);
      EXPECT_EQ(allocations, 0);
      EXPECT_GT(faults, 200);  // the runs re-plan after faults
      EXPECT_GT(sink, 0.0);
    }
  }
}

}  // namespace
}  // namespace adacheck::analytic
