// detlint fixture: code AFTER a raw string terminator is still code.
// The stripper must resume exact lexing at the closing )delim", not
// swallow the rest of the line or file.
#include <cstdlib>
#include <ctime>
#include <string>

// Same-line violation after the literal closes:
const char *kA = R"(harmless rand() text)"; long tA = time(nullptr); // qoslint:expect(time)

// Multi-line raw string, then a violation on the next code line.
const char *kB = R"block(
    srand(1); // still data
)block";
int tB = std::rand(); // qoslint:expect(rand)
