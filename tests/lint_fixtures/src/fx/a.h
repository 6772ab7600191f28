// Fixture: one half of the include-cycle a.h <-> b.h.
// Not built; scanned by tools/lint.py --self-test.
#ifndef TRACER_FX_A_H_
#define TRACER_FX_A_H_

#include "fx/b.h"

namespace fx {
struct A {
  B* peer;
};
}  // namespace fx

#endif  // TRACER_FX_A_H_
