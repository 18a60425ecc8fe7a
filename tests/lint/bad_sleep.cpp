// lint-fixture: src/server/bad_sleep.cpp
//
// Rule: no-poll-sleep. A loop that sleeps or waits with a timeout to
// notice work adds that tick to every request; block on the event (poll
// on an fd, a predicate wait, a completion hook) instead.
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include <unistd.h>

namespace acolay::server {

void bad_ticks(std::mutex& m, std::condition_variable& cv, bool& ready) {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));  // lint-expect: no-poll-sleep
  std::this_thread::sleep_until(std::chrono::steady_clock::now());  // lint-expect: no-poll-sleep
  ::usleep(1000);  // lint-expect: no-poll-sleep
  timespec ts{0, 1000000};
  ::nanosleep(&ts, nullptr);  // lint-expect: no-poll-sleep
  std::unique_lock<std::mutex> lock(m);
  cv.wait_for(lock, std::chrono::milliseconds(1), [&] { return ready; });  // lint-expect: no-poll-sleep
  cv.wait_until(lock, std::chrono::steady_clock::now());  // lint-expect: no-poll-sleep
  // Waiting on the event itself is the fix, and is allowed:
  cv.wait(lock, [&] { return ready; });
  // The words alone (say, in a name) are not calls:
  const bool wait_for_ready = ready;
  ready = wait_for_ready;
}

}  // namespace acolay::server
