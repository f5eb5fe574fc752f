// detlint fixture: host-entropy and process-global RNG constructs.
// Every tagged line must fire exactly the named rule.
#include <cstdlib>
#include <random>

unsigned
hostEntropySeed()
{
    std::random_device rd;       // qoslint:expect(random-device)
    return rd();
}

int
legacyRandom()
{
    srand(42);                   // qoslint:expect(rand)
    return rand();               // qoslint:expect(rand)
}

int
qualifiedLegacyRandom()
{
    return std::rand();          // qoslint:expect(rand)
}

// Identifiers merely containing "rand" and member calls named rand
// must not fire: the boundary check skips `.rand(` and `->rand(`.
struct Operand
{
    int rand;
};

int
operandIsFine(Operand &op, Operand *pop, int strand)
{
    return op.rand + pop->rand + strand;
}
