// Fixture: violates include-hygiene once per form: an unqualified quoted
// include, a ".." traversal, an unknown project subdir and an <angle>
// include of a project header. System headers and "subdir/header.h" are
// fine. Not built; scanned by tools/lint.py --self-test.
#include <vector>

#include "fx/fx_status.h"
#include "fx_status.h"
#include "../fx/fx_status.h"
#include "nosuchdir/fx_status.h"
#include <fx/fx_status.h>
