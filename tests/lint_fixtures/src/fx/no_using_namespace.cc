// Fixture: violates no-using-namespace with `using namespace std` in a
// .cc file. A non-std using-directive in a .cc file is allowed.
// Not built; scanned by tools/lint.py --self-test.

namespace fx {
namespace detail {}
}  // namespace fx

using namespace fx::detail;  // ok: not std, not a header
using namespace std;         // no-using-namespace: forbidden everywhere
