// Fixture: violates nothing — the negative control proving the linter
// does not over-report: consumes one Status, explicitly ignores
// another, and registers a unique metric exactly once.
// Not built; scanned by tools/lint.py --self-test.
#include "fx/fx_status.h"

namespace fx {

void Quiet() {
  const Status status = DoThing();
  if (!status.ok()) {
    TRACER_IGNORE_STATUS(DoThing());
  }
  GetOrCreateGauge("tracer_fx_clean_depth");
}

}  // namespace fx
