// Fixture: violates obs-naming — metric name does not follow the
// `tracer_<layer>_<name>` lower_snake convention.
// Not built; scanned by tools/lint.py --self-test.

namespace fx {

void RecordBadName() {
  GetOrCreateCounter("FxBadMetricName");  // obs-naming: not tracer_[a-z0-9_]+
}

}  // namespace fx
