// Fixture: violates no-raw-sync (raw std:: synchronization primitive outside
// common/mutex.h). Not built; scanned by tools/lint.py --self-test.
#include <mutex>

namespace fx {

std::mutex state_mutex;  // no-raw-sync: should be common::Mutex

int guarded_value = 0;

}  // namespace fx
