// lint-fixture: src/core/suppressed_ok.cpp
//
// Every violation below wears a suppression, and the fixture expects
// zero findings: this file is the test that all three suppression forms
// (same-line, next-line, file-level) actually silence their rule — and
// nothing else.
//
// lint:allow-file(no-float-in-aco-math) -- fixture: file-level form under test
#include <unistd.h>

#include <cmath>
#include <unordered_map>

namespace acolay::core {

double all_forms(double tau) {
  std::unordered_map<int, int> m;  // lint:allow(no-unordered-container) -- fixture: same-line form under test
  // lint:allow-next-line(no-naked-new) -- fixture: next-line form under test
  int* p = new int(3);
  const float narrow = 2.0f;  // covered by the allow-file directive
  const double result =
      tau * static_cast<double>(narrow) * static_cast<double>(m.size() + 1);
  // lint:allow-next-line(no-naked-new) -- fixture: next-line form, delete spelling
  delete p;
  ::usleep(0);  // lint:allow(no-poll-sleep) -- fixture: same-line form, sleep rule
  return result;
}

}  // namespace acolay::core
