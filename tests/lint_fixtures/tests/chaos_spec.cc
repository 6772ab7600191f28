// Fixture: the tests/ corpus for fault-point-exercised. It arms every
// registered fixture point except one; the missing one is the finding,
// reported at its registry entry. Not built; scanned by --self-test.

namespace fx {

const char* kChaosSpec = "fx.used:0.5:0,fx.unused:0.1:0,Fx.BadName:1:0";

}  // namespace fx
