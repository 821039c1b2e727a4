// The adaptive policies call num_SCP / num_CCP at every checkpoint
// decision, so the solve must stay off the heap.  This binary replaces
// the global operator new with a counting one and asserts that no
// allocation happens inside the analytic calls.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "analytic/num_checkpoints.hpp"

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

}  // namespace
}  // namespace adacheck::analytic
