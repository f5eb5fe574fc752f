// detlint fixture: prose and string literals must never fire rules.
// Discussing std::random_device, rand(), time(), steady_clock or
// std::this_thread::get_id() in a comment is fine.
#include <string>

/*
 * Block comments too: system_clock, srand(7), std::thread::id,
 * std::set<Node *> -- all harmless here.
 */

const std::string kDoc =
    "uses steady_clock and rand() and time(nullptr) in a string";

const char kQuote = '"'; // a lone quote char must not derail stripping

// Trailing block comment on a code line:
int live = 1; /* mentions system_clock */ int more = 2;

// Documentation quoting the pragma syntax is not a directive:
// write `qoslint:allow(<rule>): <reason>` next to the construct, or
// tag fixtures with qoslint:expect(<rule>).
