/**
 * @file
 * Federation shard worker: one shard controller serving the
 * coordinator over an inherited Unix-domain-socket fd. Spawned per
 * shard by the federated engine (`cluster_driver --shards N
 * --transport uds --shard-bin federation_shard`); never started by
 * hand — the fd IS the contract.
 *
 * Exit status: 0 on a clean shutdown (FedShutdown or peer close),
 * 1 on a poisoned stream (protocol error, diagnostics on stderr).
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "common/build_info.hh"
#include "federation/shard_controller.hh"
#include "federation/transport.hh"
#include "tool_flags.hh"

using namespace cmpqos;

int
main(int argc, char **argv)
{
    if (handleVersionFlag("federation_shard", argc, argv))
        return 0;

    int fd = -1;
    int shard = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--fd" && i + 1 < argc) {
            readFlag(argv[0], arg, argv[++i], fd, "a file descriptor", 0);
        } else if (arg == "--shard" && i + 1 < argc) {
            readFlag(argv[0], arg, argv[++i], shard, "a shard index", 0);
        } else {
            std::fprintf(stderr,
                         "usage: %s --fd N --shard I\n"
                         "(spawned by the federated engine; the fd is "
                         "an inherited socketpair end)\n",
                         argv[0]);
            return 2;
        }
    }
    if (fd < 0) {
        std::fprintf(stderr, "%s: missing --fd\n", argv[0]);
        return 2;
    }

    UdsLink link(fd);
    ShardController controller;
    std::string error;
    if (!controller.serve(link, error)) {
        std::fprintf(stderr, "federation_shard[%d]: %s\n", shard,
                     error.c_str());
        return 1;
    }
    return 0;
}
