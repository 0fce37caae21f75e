// Standalone streamq server: the network service tier (src/net/) on a real
// TCP port with real disks.
//
//   $ ./streamq_server --port=9409 --data-dir=/var/lib/streamq
//   serving on 0.0.0.0:9409 (data dir /var/lib/streamq)
//
// Clients: StreamqClient (src/net/client.h), `streamq_cli connect
// HOST:PORT`, or any HTTP scraper hitting GET /metrics on the same port.
// Durable streams (CREATE with durable=true) put their WAL + checkpoints
// under --data-dir; a restarted server recovers them on the next CREATE of
// the same stream name.
//
// SIGTERM drains gracefully (stop admitting work, resolve in-flight FLUSH
// barriers, flush write queues, close by --drain-timeout-ms) and logs a
// one-line drain summary; SIGINT shuts down immediately. Both handlers
// are async-signal-safe: an atomic flag plus a self-pipe write.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "durability/storage.h"
#include "net/reactor.h"
#include "net/server.h"

namespace {

streamq::net::Reactor* g_reactor = nullptr;

void HandleSignal(int sig) {
  if (g_reactor == nullptr) return;
  if (sig == SIGTERM) {
    g_reactor->RequestDrain();
  } else {
    g_reactor->Shutdown();
  }
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: streamq_server [flags]\n"
      "  --port=N              listen port (default 9409; 0 = ephemeral)\n"
      "  --bind=ADDR           listen address (default 127.0.0.1)\n"
      "  --data-dir=PATH       durable stream state (default streamq-data)\n"
      "  --max-streams=N       stream table ceiling (default 64)\n"
      "  --shards=N            default pipeline shards per stream "
      "(default 2)\n"
      "  --ring=N              ingest ring capacity per shard "
      "(default 16384)\n"
      "  --max-conns=N         admission control: connections past N get a\n"
      "                        SERVER_BUSY frame and close (default 0 = "
      "unlimited)\n"
      "  --idle-timeout-ms=N   evict sessions idle this long (default 0 = "
      "never)\n"
      "  --stall-timeout-ms=N  evict mid-frame read stalls and slow readers\n"
      "                        stuck at the write-queue limit (default 0 = "
      "never)\n"
      "  --max-retained-mb=N   global budget on buffered bytes across all\n"
      "                        sessions (default 0 = unlimited)\n"
      "  --drain-timeout-ms=N  SIGTERM drain deadline before stragglers are\n"
      "                        force-closed (default 5000)\n"
      "  --audit               audit every stream: reservoir shadows, AUDIT\n"
      "                        opcode, streamq_audit_* metrics, /healthz\n"
      "                        flips 503 on sustained eps violations\n"
      "  --audit-interval-ms=N server-driven audit round period per stream\n"
      "                        (default 0 = rounds only on AUDIT requests)\n"
      "  --audit-reservoir=N   shadow reservoir capacity (default 4096)\n"
      "  --audit-slo-eps=E     audit against this absolute rank-error SLO\n"
      "                        instead of each stream's eps*slack\n"
      "  --audit-unhealthy=N   consecutive violating rounds before /healthz\n"
      "                        goes 503 (default 3; 0 = never)\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace streamq;

  net::ServerOptions server_options;
  net::ReactorOptions reactor_options;
  reactor_options.port = 9409;
  std::string data_dir = "streamq-data";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--port=", 0) == 0) {
      const int port = std::atoi(arg.c_str() + 7);
      if (port < 0 || port > 65535) {
        std::fprintf(stderr, "bad --port\n");
        return 2;
      }
      reactor_options.port = static_cast<uint16_t>(port);
    } else if (arg.rfind("--bind=", 0) == 0) {
      reactor_options.bind_addr = arg.substr(7);
    } else if (arg.rfind("--data-dir=", 0) == 0) {
      data_dir = arg.substr(11);
    } else if (arg.rfind("--max-streams=", 0) == 0) {
      server_options.max_streams = std::strtoul(arg.c_str() + 14, nullptr, 10);
    } else if (arg.rfind("--shards=", 0) == 0) {
      server_options.default_shards =
          std::strtoul(arg.c_str() + 9, nullptr, 10);
    } else if (arg.rfind("--ring=", 0) == 0) {
      server_options.ring_capacity = std::strtoul(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--max-conns=", 0) == 0) {
      server_options.max_connections =
          std::strtoul(arg.c_str() + 12, nullptr, 10);
    } else if (arg.rfind("--idle-timeout-ms=", 0) == 0) {
      server_options.idle_timeout_ms =
          std::strtoul(arg.c_str() + 18, nullptr, 10);
    } else if (arg.rfind("--stall-timeout-ms=", 0) == 0) {
      server_options.stall_timeout_ms =
          std::strtoul(arg.c_str() + 19, nullptr, 10);
    } else if (arg.rfind("--max-retained-mb=", 0) == 0) {
      server_options.max_retained_bytes =
          std::strtoul(arg.c_str() + 18, nullptr, 10) * (size_t{1} << 20);
    } else if (arg.rfind("--drain-timeout-ms=", 0) == 0) {
      reactor_options.drain_timeout_ms = std::atoi(arg.c_str() + 19);
    } else if (arg == "--audit") {
      server_options.audit = true;
    } else if (arg.rfind("--audit-interval-ms=", 0) == 0) {
      server_options.audit_interval_ms =
          std::strtoul(arg.c_str() + 20, nullptr, 10);
    } else if (arg.rfind("--audit-reservoir=", 0) == 0) {
      server_options.audit_reservoir =
          std::strtoul(arg.c_str() + 18, nullptr, 10);
    } else if (arg.rfind("--audit-slo-eps=", 0) == 0) {
      server_options.audit_slo_eps = std::atof(arg.c_str() + 16);
    } else if (arg.rfind("--audit-unhealthy=", 0) == 0) {
      server_options.audit_unhealthy_rounds = static_cast<uint32_t>(
          std::strtoul(arg.c_str() + 18, nullptr, 10));
    } else {
      Usage();
      return arg == "--help" ? 0 : 2;
    }
  }

  durability::PosixStorage storage;
  server_options.storage = &storage;
  server_options.data_dir = data_dir;

  net::StreamqServer server(server_options);
  auto reactor = net::Reactor::Create(&server, reactor_options);
  if (reactor == nullptr) {
    std::fprintf(stderr, "streamq_server: cannot listen on %s:%u\n",
                 reactor_options.bind_addr.c_str(), reactor_options.port);
    return 1;
  }

  g_reactor = reactor.get();
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);

  std::printf("serving on %s:%u (data dir %s)\n",
              reactor_options.bind_addr.c_str(), reactor->port(),
              data_dir.c_str());
  std::printf("metrics: curl http://%s:%u/metrics\n",
              reactor_options.bind_addr.c_str(), reactor->port());
  if (server_options.audit) {
    std::printf("audit: on (interval %llu ms), health: curl http://%s:%u"
                "/healthz\n",
                static_cast<unsigned long long>(
                    server_options.audit_interval_ms),
                reactor_options.bind_addr.c_str(), reactor->port());
  }
  std::fflush(stdout);

  reactor->Run();

  g_reactor = nullptr;
  const net::DrainSummary& drain = reactor->drain_summary();
  if (drain.drained) {
    std::printf(
        "drained in %llu ms: %zu session(s) at start, %llu flush barrier(s) "
        "resolved, %zu forced close(s), %zu stream(s) open\n",
        static_cast<unsigned long long>(drain.duration_ms),
        drain.sessions_at_begin,
        static_cast<unsigned long long>(drain.flushes_resolved),
        drain.sessions_forced, server.StreamCount());
  } else {
    std::printf("shutting down: %zu session(s), %zu stream(s) open\n",
                server.SessionCount(), server.StreamCount());
  }
  return 0;
}
