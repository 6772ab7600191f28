// Fixture: violates obs-naming — span name does not follow the
// `<subsystem>.<operation>` lowercase-dotted convention.
// Not built; scanned by tools/lint.py --self-test.

namespace fx {

void BadSpan() {
  TRACER_SPAN("Fx.BadSpan");  // obs-naming: uppercase; must be subsystem.operation
}

}  // namespace fx
