// Fixture: the other half of the include-cycle a.h <-> b.h. The
// linter attributes the cycle to this file, whose include edge closes
// it. Not built; scanned by tools/lint.py --self-test.
#ifndef TRACER_FX_B_H_
#define TRACER_FX_B_H_

#include "fx/a.h"

namespace fx {
struct B {
  A* peer;
};
}  // namespace fx

#endif  // TRACER_FX_B_H_
