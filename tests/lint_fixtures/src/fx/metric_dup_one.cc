// Fixture: first registration site of metric "tracer_fx_dup_total" — legal on
// its own; the duplicate in metric_dup_two.cc is the metric-unique finding.
// Not built; scanned by tools/lint.py --self-test.

namespace fx {

void RecordOne() {
  GetOrCreateCounter("tracer_fx_dup_total");
}

}  // namespace fx
