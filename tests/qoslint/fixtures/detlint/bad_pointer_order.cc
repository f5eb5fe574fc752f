// detlint fixture: pointer-keyed ordered containers iterate in
// allocation-address order, which varies run to run.
#include <map>
#include <set>

struct Node
{
    int id;
};

std::set<Node *> liveNodes;      // qoslint:expect(pointer-order)

std::map<const Node *, int> nodeRank; // qoslint:expect(pointer-order)

// Keying by a stable id is the fix; this must not fire.
std::map<int, Node *> nodesById;
