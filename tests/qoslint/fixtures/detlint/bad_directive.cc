// detlint fixture: malformed directives are themselves violations so
// the allowlist stays auditable.
#include <chrono>

// An allow without a reason is rejected AND does not suppress.
// qoslint:expect(qoslint-directive)
// qoslint:expect(wall-clock)
const auto t = std::chrono::steady_clock::now(); // qoslint:allow(wall-clock)

// qoslint:expect(qoslint-directive)
// next line names a rule that does not exist
int x = 0; // qoslint:allow(no-such-rule): typo'd rule id
