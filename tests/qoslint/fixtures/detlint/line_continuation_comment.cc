// detlint fixture: a // comment ending in a backslash splices the
// next physical line into the comment. Code "hidden" behind such a
// splice is comment text and must not fire — and the first real code
// line after the continuation chain ends is live again.
#include <cstdlib>
#include <ctime>

// this comment continues onto the next line \
long hidden = time(nullptr); srand(7);

// a chain of continuations stays one comment \
std::random_device rd; \
pthread_self();
int live_again = 1;

// The line after a continued comment that also ends the chain is
// code: this must fire.
// one more continued comment \
still comment text
long t = time(nullptr); // qoslint:expect(time)
