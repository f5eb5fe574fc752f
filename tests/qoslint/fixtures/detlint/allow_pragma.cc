// detlint fixture: the allow pragma. None of the allowed lines may
// fire; the unallowed control at the bottom must.
#include <chrono>

double
measuredWallSeconds()
{
    // Same-line form.
    const auto t0 = std::chrono::steady_clock::now(); // qoslint:allow(wall-clock): measurement-only timing
    // Preceding-comment form, wrapped across two comment lines the
    // way real justifications are.
    // qoslint:allow(wall-clock): host wall time reported to the
    // operator only; never feeds virtual time or placement.
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

// An allow for one rule must not suppress a different rule.
// qoslint:allow(time): irrelevant to the line below
// qoslint:expect(wall-clock)
const auto stamp = std::chrono::system_clock::now();
