// Fixture: violates metric-unique — registers metric "tracer_fx_dup_total" a second time
// (first site: metric_dup_one.cc). One name, one cached handle.
// Not built; scanned by tools/lint.py --self-test.

namespace fx {

void RecordTwo() {
  GetOrCreateCounter("tracer_fx_dup_total");  // metric-unique: duplicate registration
}

}  // namespace fx
