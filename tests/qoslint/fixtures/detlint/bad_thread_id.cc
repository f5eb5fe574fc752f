// detlint fixture: scheduling-identity constructs.
#include <functional>
#include <thread>

std::size_t
schedulingIdentityHash()
{
    // qoslint:expect(thread-id)
    return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

std::thread::id idSlot;          // qoslint:expect(thread-id)
