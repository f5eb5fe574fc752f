// A pragma naming another analyzer's rule is not an unknown rule to
// layerlint: every analyzer reads the one qoslint rule table.
#include <chrono>

// qoslint:allow(wall-clock): fixture proves the rule table is shared
const auto t0 = std::chrono::steady_clock::now();
