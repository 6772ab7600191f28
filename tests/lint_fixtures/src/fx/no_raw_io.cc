// Fixture: violates no-raw-io twice (std::cerr and printf in library
// code). Formatting into a buffer with snprintf is fine.
// Not built; scanned by tools/lint.py --self-test.
#include <cstdio>
#include <iostream>

namespace fx {

void Report(int n) {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "%d", n);  // ok: no stream
  std::cerr << buffer;                             // no-raw-io
  printf("%d\n", n);                               // no-raw-io
}

}  // namespace fx
