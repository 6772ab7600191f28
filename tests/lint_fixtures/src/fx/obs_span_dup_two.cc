// Fixture: violates obs-naming — opens span "fx.dup" at a second site (first:
// obs_span_dup_one.cc). One span name, one place in the code; duplicated
// names make a trace ambiguous about which code path ran.
// Not built; scanned by tools/lint.py --self-test.

namespace fx {

void SpanTwo() {
  TRACER_SPAN("fx.dup");  // obs-naming: duplicate span registration site
}

}  // namespace fx
