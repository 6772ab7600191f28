// Fixture registry. Every entry is used by src/fx/fault_point_use.cc.
// "fx.unused" is never injected and "Fx.BadName" breaks the
// <subsystem>.<operation> convention: two fault-point-registry findings.
// "fx.untested" is named by no file under tests/: the
// fault-point-exercised finding. Not built; scanned by --self-test.
#ifndef TRACER_FAULT_FAULT_POINTS_H_
#define TRACER_FAULT_FAULT_POINTS_H_

#define FX_FAULT_POINT_LIST(X)                                  \
  X("fx.used", "injected by fault_point_use.cc")                \
  X("fx.unused", "fault-point-registry: never injected")        \
  X("Fx.BadName", "fault-point-registry: not lowercase dotted") \
  X("fx.untested", "fault-point-exercised: no test arms it")

#endif  // TRACER_FAULT_FAULT_POINTS_H_
