// ghba_client — poke a running mds_daemon over the wire, via DaemonClient.
//
//   $ ghba_client <port> ping
//   $ ghba_client <port> insert </path> [inode]
//   $ ghba_client <port> verify </path>
//   $ ghba_client <port> lease </path>
//   $ ghba_client <port> invalidate </path>
//   $ ghba_client <port> unlink </path>
//   $ ghba_client <port> stats
//   $ ghba_client <port> shutdown
//
// `verify` resolves the routing, not just existence: it prints the id of
// the server that answered for the path (from its lease grant) and the
// replica owners whose filters match, e.g.
//
//   present resolved=mds2 lease_ttl_ms=2000 replicas=[2] l1=mds2
//
// Exit status: 0 success; 1 failure; 2 usage; 3 verify says absent.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "client/daemon_client.hpp"

using namespace ghba;

namespace {

int PrintStatus(const Status& s) {
  std::printf("%s\n", s.ToString().c_str());
  return s.ok() ? 0 : 1;
}

int RunVerify(DaemonClient& client, const std::string& path) {
  const auto v = client.Verify(path);
  if (!v.ok()) {
    std::fprintf(stderr, "verify failed: %s\n", v.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", v->present ? "present" : "absent");
  if (v->resolved != kInvalidMds) {
    std::printf(" resolved=mds%u", v->resolved);
    if (v->lease_granted) std::printf(" lease_ttl_ms=%u", v->lease_ttl_ms);
  }
  std::printf(" replicas=[");
  for (std::size_t i = 0; i < v->replica_hits.size(); ++i) {
    std::printf("%s%u", i ? " " : "", v->replica_hits[i]);
  }
  std::printf("]");
  if (v->lru_unique) std::printf(" l1=mds%u", v->lru_home);
  std::printf("\n");
  return v->present ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <port> <ping|insert|verify|lease|invalidate|"
                 "unlink|stats|shutdown> [args]\n",
                 argv[0]);
    return 2;
  }
  const auto port = static_cast<std::uint16_t>(std::atoi(argv[1]));
  const std::string cmd = argv[2];

  auto client = DaemonClient::Connect(port);
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }

  const auto need_path = [&]() -> const char* {
    if (argc < 4) {
      std::fprintf(stderr, "%s needs a path\n", cmd.c_str());
      return nullptr;
    }
    return argv[3];
  };

  if (cmd == "ping") return PrintStatus(client->Ping());
  if (cmd == "insert") {
    const char* path = need_path();
    if (path == nullptr) return 2;
    FileMetadata md;
    md.inode = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 1;
    return PrintStatus(client->Insert(path, md));
  }
  if (cmd == "verify") {
    const char* path = need_path();
    if (path == nullptr) return 2;
    return RunVerify(*client, path);
  }
  if (cmd == "lease") {
    const char* path = need_path();
    if (path == nullptr) return 2;
    const auto lease = client->RequestLease(path);
    if (!lease.ok()) {
      std::fprintf(stderr, "lease failed: %s\n",
                   lease.status().ToString().c_str());
      return 1;
    }
    if (lease->granted) {
      std::printf("granted home=mds%u ttl_ms=%u\n", lease->home,
                  lease->ttl_ms);
      return 0;
    }
    std::printf("refused\n");
    return 3;
  }
  if (cmd == "invalidate") {
    const char* path = need_path();
    if (path == nullptr) return 2;
    return PrintStatus(client->Invalidate(path));
  }
  if (cmd == "unlink") {
    const char* path = need_path();
    if (path == nullptr) return 2;
    return PrintStatus(client->Unlink(path));
  }
  if (cmd == "stats") {
    const auto stats = client->Stats();
    if (!stats.ok()) return 1;
    std::printf("frames_in=%llu frames_out=%llu files=%llu replicas=%llu\n",
                static_cast<unsigned long long>(stats->frames_in),
                static_cast<unsigned long long>(stats->frames_out),
                static_cast<unsigned long long>(stats->files),
                static_cast<unsigned long long>(stats->replicas));
    return 0;
  }
  if (cmd == "shutdown") {
    if (!client->Shutdown().ok()) return 1;
    std::printf("shutdown sent\n");
    return 0;
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
