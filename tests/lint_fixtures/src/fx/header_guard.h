// Fixture: violates header-guard; the canonical guard for
// src/fx/header_guard.h is TRACER_FX_HEADER_GUARD_H_.
// Not built; scanned by tools/lint.py --self-test.
#ifndef FX_HEADER_GUARD_H_
#define FX_HEADER_GUARD_H_

#endif  // FX_HEADER_GUARD_H_
