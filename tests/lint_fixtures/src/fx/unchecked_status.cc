// Fixture: violates unchecked-status twice (a bare dropped Status and a
// (void)-cast Status). Also shows the three accepted forms, which must
// NOT be flagged. Not built; scanned by tools/lint.py --self-test.
#include "fx/fx_status.h"

namespace fx {

void Caller() {
  DoThing();        // unchecked-status: dropped result
  (void)DoThing();  // unchecked-status: invisible drop

  const Status consumed = DoThing();   // ok: assigned
  if (!DoThing().ok()) {               // ok: examined
    return;
  }
  TRACER_IGNORE_STATUS(DoThing());     // ok: auditable explicit drop
}

}  // namespace fx
