/**
 * @file
 * qoslint entry point — dispatches to the three analyzers. See
 * qoslint.hh for the suite overview and per-analyzer files for the
 * mechanics.
 */

#include "qoslint.hh"

namespace
{

void
usage()
{
    std::fputs(
        "usage: qoslint <subcommand> [args...]\n"
        "subcommands:\n"
        "  detlint    ban host-state constructs in deterministic code\n"
        "             (<path>..., --list-rules)\n"
        "  layerlint  check #include edges against the declared "
        "module DAG\n"
        "  lockorder  extract Mutex acquisition order and reject "
        "cycles\n"
        "every subcommand also accepts: --self-test <fixture-dir>\n"
        "  qoslint --version      print the build identity\n",
        stderr);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) {
        usage();
        return 2;
    }
    if (args[0] == "--version") {
        // qoslint deliberately links nothing from src/ (it polices
        // that code), so it prints the identity macros directly
        // instead of calling common/build_info.
#ifndef CMPQOS_VERSION_STRING
#define CMPQOS_VERSION_STRING "0.0.0"
#endif
#ifndef CMPQOS_GIT_HASH
#define CMPQOS_GIT_HASH "nogit"
#endif
#ifndef CMPQOS_BUILD_TYPE
#define CMPQOS_BUILD_TYPE "unknown"
#endif
#ifndef CMPQOS_BUILD_OPTIONS
#define CMPQOS_BUILD_OPTIONS ""
#endif
        const char *options = CMPQOS_BUILD_OPTIONS;
        std::printf("qoslint (cmpqos " CMPQOS_VERSION_STRING
                    ", git " CMPQOS_GIT_HASH ", " CMPQOS_BUILD_TYPE
                    "%s%s)\n",
                    options[0] != '\0' ? ", " : "", options);
        return 0;
    }
    const std::string sub = args[0];
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    if (sub == "detlint")
        return qoslint::detlintMain(rest);
    if (sub == "layerlint")
        return qoslint::layerlintMain(rest);
    if (sub == "lockorder")
        return qoslint::lockorderMain(rest);
    std::fprintf(stderr, "qoslint: unknown subcommand '%s'\n",
                 sub.c_str());
    usage();
    return 2;
}
