// Fixture: first site opening span "fx.dup" — legal on its own; the
// second site in obs_span_dup_two.cc is the obs-naming finding.
// Not built; scanned by tools/lint.py --self-test.

namespace fx {

void SpanOne() {
  TRACER_SPAN("fx.dup");
}

}  // namespace fx
