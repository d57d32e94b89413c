// Shared helper for tests that park a transaction mid-flight while another
// transaction commits underneath it.
#ifndef TCS_TESTS_PARKED_TX_H_
#define TCS_TESTS_PARKED_TX_H_

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <semaphore>
#include <thread>

#include "src/core/runtime.h"
#include "src/core/transaction.h"

namespace tcs {

using ParkFn = std::function<void()>;

// Runs `body` as a transaction on its own thread. Its first attempt parks at
// its call to `park()` while `interfere` commits on a helper thread; later
// attempts pass straight through `park()`.
//
// The interfering commit cannot run on the thread that releases the parked
// attempt: every writer commit ends with the privatization fence (commit-time
// quiescence, Appendix A), which waits for the transactions that began before
// it, the parked attempt included. kQuiesceCalls ticks after the commit has
// released its orecs and just before the fence waits, so the parked attempt is
// let go then. It meets the new versions and aborts or commits, and either
// lets the fence return.
inline void RunWithParkedTx(
    Runtime& rt, const std::function<void(Tx&, const ParkFn&)>& body,
    const std::function<void(Tx&)>& interfere) {
  std::binary_semaphore parked{0};
  std::binary_semaphore resume{0};
  bool first = true;
  const ParkFn park = [&] {
    if (first) {
      first = false;
      parked.release();
      resume.acquire();
    }
  };
  std::thread parked_thread(
      [&] { Atomically(rt.sys(), [&](Tx& tx) { body(tx, park); }); });
  parked.acquire();
  const std::uint64_t fences = rt.AggregateStats().Get(Counter::kQuiesceCalls);
  std::thread writer(
      [&] { Atomically(rt.sys(), [&](Tx& tx) { interfere(tx); }); });
  for (int i = 0; i < 100000 &&
                  rt.AggregateStats().Get(Counter::kQuiesceCalls) == fences;
       ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_GT(rt.AggregateStats().Get(Counter::kQuiesceCalls), fences)
      << "the interfering commit never reached its privatization fence";
  resume.release();
  writer.join();
  parked_thread.join();
}

}  // namespace tcs

#endif  // TCS_TESTS_PARKED_TX_H_
