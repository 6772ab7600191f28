// Fixture support header: declares the Status-returning function the
// unchecked-status fixtures call. Not built; scanned by tools/lint.py --self-test.
#ifndef TRACER_FX_FX_STATUS_H_
#define TRACER_FX_FX_STATUS_H_

namespace fx {

class Status;

Status DoThing();

}  // namespace fx

#endif  // TRACER_FX_FX_STATUS_H_
