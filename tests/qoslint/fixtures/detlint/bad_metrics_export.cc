// detlint fixture: the "metrics" in this filename marks it as export
// code, where unordered containers risk hash-order iteration leaking
// into externally visible output.
#include <string>
#include <unordered_map>
#include <unordered_set>

// qoslint:expect(unordered-export)
std::unordered_map<std::string, double> counters;

std::unordered_set<int> seen;    // qoslint:expect(unordered-export)
