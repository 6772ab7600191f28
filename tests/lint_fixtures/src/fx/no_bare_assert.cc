// Fixture: violates no-bare-assert twice (a banned <cassert> include and
// a runtime assert()). static_assert is a language feature and must NOT
// be flagged. Not built; scanned by tools/lint.py --self-test.
#include <cassert>

namespace fx {

static_assert(sizeof(int) >= 2, "ok: compile-time check");

void Check(int n) {
  assert(n > 0);  // no-bare-assert: use TRACER_CHECK
}

}  // namespace fx
