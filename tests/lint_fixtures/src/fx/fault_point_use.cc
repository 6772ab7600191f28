// Fixture: violates fault-point-registry by injecting at a fault point
// that the registry (src/fault/fault_points.h of this fixture tree) does
// not list. Not built; scanned by tools/lint.py --self-test.

namespace fx {

void Op() {
  TRACER_FAULT_POINT("fx.used");      // ok: registered
  TRACER_FAULT_POINT("fx.untested");  // ok: registered
  TRACER_FAULT_POINT("Fx.BadName");   // ok: registered (the name is the
                                      // registry's finding, not this use's)
  TRACER_FAULT_POINT("fx.unknown");   // fault-point-registry: unregistered
}

}  // namespace fx
