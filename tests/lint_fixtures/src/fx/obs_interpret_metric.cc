// Fixture: violates obs-naming — an interpret-layer metric that breaks the
// `tracer_<layer>_<name>` lower_snake convention (the real serve explain
// path exports tracer_interpret_requests_total etc.; a camelCase suffix
// must be caught before it fragments the metric family).
// Not built; scanned by tools/lint.py --self-test.

namespace fx {

void RecordInterpretBadName() {
  GetOrCreateCounter("tracer_interpret_requestsTotal");  // obs-naming: camelCase
}

}  // namespace fx
