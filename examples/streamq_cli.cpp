// Command-line quantile summariser, two modes.
//
// Local (the original): reads whitespace-separated numbers from stdin,
// sketches them in-process, prints requested quantiles.
//
//   $ seq 1 1000000 | shuf |
//         ./streamq_cli --algo=GKArray --eps=0.001 --phi=0.5,0.9,0.99
//
// Client (network tier): connects to a running streamq server and drives
// the wire protocol interactively -- CREATE/INSERT/QUERY/RANK/FLUSH/
// STATS/DROP -- one command per stdin line.
//
//   $ ./streamq_server --port=9409 &
//   $ ./streamq_cli connect 127.0.0.1:9409
//   > create rtt Random 0.001
//   > insert rtt 200 210 5000
//   > query rtt 0.5
//   > flush rtt
//
// Floating-point input in local mode is supported through the
// order-preserving IEEE-754 mapping (footnote 1 of the paper): values are
// mapped to uint64, sketched in the fixed universe, and mapped back.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "net/client.h"
#include "obs/audit.h"
#include "quantile/factory.h"
#include "util/float_order.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: streamq_cli [--algo=NAME] [--eps=E] [--phi=P1,P2,...]\n"
               "       streamq_cli connect HOST:PORT\n"
               "       streamq_cli audit HOST:PORT STREAM\n"
               "  NAME: GKTheory GKAdaptive GKArray FastQDigest MRL99 Random\n"
               "        DCM DCS Post (default: GKArray)\n"
               "  E:    rank error target (default 0.001)\n"
               "  P:    comma-separated quantiles in (0,1) "
               "(default 0.5,0.9,0.99)\n"
               "local mode reads whitespace-separated numbers from stdin;\n"
               "connect mode reads protocol commands (type 'help')\n");
}

void ConnectHelp() {
  std::printf(
      "commands (one per line):\n"
      "  create NAME [ALGO] [EPS] [durable]   make a stream on the server\n"
      "  drop NAME                            drop it (and durable state)\n"
      "  insert NAME V...                     insert value(s); >1 => one\n"
      "                                       BATCH_INSERT frame\n"
      "  delete NAME V                        turnstile delete (delta -1)\n"
      "  query NAME PHI                       phi-quantile in (0,1)\n"
      "  rank NAME V                          estimated rank of V\n"
      "  flush NAME                           durability barrier; prints ack\n"
      "  stats NAME                           server-side stream stats\n"
      "  audit NAME                           accuracy audit round, per-phi\n"
      "                                       table (audited servers only)\n"
      "  help / quit\n");
}

void PrintResponse(const streamq::net::NetResponse& resp) {
  using namespace streamq::net;
  if (!resp.ok()) {
    std::printf("%s %s: %s\n", NetOpName(resp.op), NetStatusName(resp.status),
                resp.message.c_str());
    return;
  }
  switch (resp.op) {
    case NetOp::kQuery:
      std::printf("%llu\n", static_cast<unsigned long long>(resp.value));
      break;
    case NetOp::kRank:
      std::printf("%lld\n", static_cast<long long>(resp.rank));
      break;
    case NetOp::kFlush:
      std::printf("ok flush-ack=%llu\n",
                  static_cast<unsigned long long>(resp.value));
      break;
    case NetOp::kInsert:
    case NetOp::kBatchInsert:
      std::printf("ok accepted=%llu\n",
                  static_cast<unsigned long long>(resp.value));
      break;
    case NetOp::kCreate:
    case NetOp::kStats: {
      const auto& s = resp.stats;
      std::printf(
          "ok algo=%s count=%llu pushed=%llu processed=%llu shards=%u "
          "mem=%.1fKB durable=%d durable_seq=%llu recovered=%d\n",
          s.algorithm.c_str(), static_cast<unsigned long long>(s.count),
          static_cast<unsigned long long>(s.pushed),
          static_cast<unsigned long long>(s.processed), s.shards,
          s.memory_bytes / 1024.0, s.durable ? 1 : 0,
          static_cast<unsigned long long>(s.durable_seq), s.recovered ? 1 : 0);
      if (s.audited) {
        std::printf(
            "audit rounds=%llu violations=%llu last_max_err=%.6f "
            "eps_budget=%.6f\n",
            static_cast<unsigned long long>(s.audit_rounds),
            static_cast<unsigned long long>(s.audit_violations),
            s.audit_max_err, s.audit_eps_budget);
      }
      break;
    }
    case NetOp::kAudit:
      std::printf("%s", streamq::obs::FormatAuditTable(resp.audit).c_str());
      break;
    default:
      std::printf("ok\n");
      break;
  }
}

std::unique_ptr<streamq::net::StreamqClient> DialEndpoint(
    const std::string& endpoint) {
  using namespace streamq::net;
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == endpoint.size()) {
    std::fprintf(stderr, "connect: expected HOST:PORT, got '%s'\n",
                 endpoint.c_str());
    return nullptr;
  }
  const std::string host = endpoint.substr(0, colon);
  const int port = std::atoi(endpoint.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "connect: bad port in '%s'\n", endpoint.c_str());
    return nullptr;
  }
  auto client = StreamqClient::ConnectTcp(host, static_cast<uint16_t>(port));
  if (client == nullptr) {
    std::fprintf(stderr, "connect to %s failed\n", endpoint.c_str());
  }
  return client;
}

/// One-shot `streamq_cli audit HOST:PORT STREAM`: run a round, print the
/// per-phi table, exit 0 when in budget / 1 on violations or errors (so it
/// slots into shell health checks alongside /healthz).
int RunAuditMode(const std::string& endpoint, const std::string& stream) {
  using namespace streamq::net;
  auto client = DialEndpoint(endpoint);
  if (client == nullptr) return 1;
  const NetResponse resp = client->Audit(stream);
  if (!resp.ok()) {
    std::fprintf(stderr, "AUDIT %s: %s\n", NetStatusName(resp.status),
                 resp.message.c_str());
    return 1;
  }
  std::printf("%s", streamq::obs::FormatAuditTable(resp.audit).c_str());
  return resp.audit.valid && resp.audit.violations > 0 ? 1 : 0;
}

int RunConnectMode(const std::string& endpoint) {
  using namespace streamq::net;
  auto client = DialEndpoint(endpoint);
  if (client == nullptr) return 1;
  std::printf("connected to %s (type 'help')\n", endpoint.c_str());

  std::string line;
  while (true) {
    std::printf("> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      ConnectHelp();
      continue;
    }

    std::string stream;
    if (!(in >> stream)) {
      std::printf("error: '%s' needs a stream name (try 'help')\n",
                  cmd.c_str());
      continue;
    }

    NetResponse resp;
    bool handled = true;
    if (cmd == "create") {
      CreateParams params;
      std::string tok;
      if (in >> tok) params.algorithm = tok;
      if (in >> tok) params.eps = std::atof(tok.c_str());
      if (in >> tok) params.durable = (tok == "durable");
      resp = client->Create(stream, params);
    } else if (cmd == "drop") {
      resp = client->Drop(stream);
    } else if (cmd == "insert") {
      std::vector<uint64_t> values;
      unsigned long long v = 0;
      while (in >> v) values.push_back(v);
      if (values.empty()) {
        std::printf("error: insert needs at least one value\n");
        continue;
      }
      resp = values.size() == 1 ? client->Insert(stream, values[0])
                                : client->InsertBatch(stream, values);
    } else if (cmd == "delete") {
      unsigned long long v = 0;
      if (!(in >> v)) {
        std::printf("error: delete needs a value\n");
        continue;
      }
      resp = client->Insert(stream, v, -1);
    } else if (cmd == "query") {
      double phi = 0.0;
      if (!(in >> phi)) {
        std::printf("error: query needs a phi\n");
        continue;
      }
      resp = client->Query(stream, phi);
    } else if (cmd == "rank") {
      unsigned long long v = 0;
      if (!(in >> v)) {
        std::printf("error: rank needs a value\n");
        continue;
      }
      resp = client->Rank(stream, v);
    } else if (cmd == "flush") {
      resp = client->Flush(stream);
    } else if (cmd == "stats") {
      resp = client->Stats(stream);
    } else if (cmd == "audit") {
      resp = client->Audit(stream);
    } else {
      std::printf("error: unknown command '%s' (try 'help')\n", cmd.c_str());
      handled = false;
    }
    if (!handled) continue;

    if (!client->ok()) {
      std::fprintf(stderr, "connection lost: %s\n", client->error().c_str());
      return 1;
    }
    PrintResponse(resp);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace streamq;

  if (argc >= 2 && std::strcmp(argv[1], "connect") == 0) {
    if (argc != 3) {
      Usage();
      return 2;
    }
    return RunConnectMode(argv[2]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "audit") == 0) {
    if (argc != 4) {
      Usage();
      return 2;
    }
    return RunAuditMode(argv[2], argv[3]);
  }

  SketchConfig config;
  config.algorithm = Algorithm::kGkArray;
  config.eps = 0.001;
  config.log_universe = 64;  // full double-order universe
  std::vector<double> phis = {0.5, 0.9, 0.99};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--algo=", 0) == 0) {
      if (!ParseAlgorithm(arg.substr(7), &config.algorithm)) {
        std::fprintf(stderr, "unknown algorithm '%s'\n", arg.substr(7).c_str());
        Usage();
        return 2;
      }
    } else if (arg.rfind("--eps=", 0) == 0) {
      config.eps = std::atof(arg.substr(6).c_str());
      if (config.eps <= 0 || config.eps >= 1) {
        std::fprintf(stderr, "eps must be in (0,1)\n");
        return 2;
      }
    } else if (arg.rfind("--phi=", 0) == 0) {
      phis.clear();
      std::string list = arg.substr(6);
      for (char* tok = std::strtok(list.data(), ","); tok != nullptr;
           tok = std::strtok(nullptr, ",")) {
        const double phi = std::atof(tok);
        if (phi <= 0 || phi >= 1) {
          std::fprintf(stderr, "phi must be in (0,1): %s\n", tok);
          return 2;
        }
        phis.push_back(phi);
      }
    } else {
      Usage();
      return arg == "--help" ? 0 : 2;
    }
  }

  const bool fixed_universe = config.algorithm == Algorithm::kFastQDigest ||
                              config.algorithm == Algorithm::kDcm ||
                              config.algorithm == Algorithm::kDcs ||
                              config.algorithm == Algorithm::kDcsPost ||
                              config.algorithm == Algorithm::kRss;
  if (fixed_universe) config.log_universe = 32;  // dyadic depth over floats?

  auto sketch = MakeSketch(config);
  double value = 0.0;
  uint64_t n = 0;
  while (std::scanf("%lf", &value) == 1) {
    uint64_t mapped;
    if (fixed_universe) {
      // 32-bit order-preserving float universe keeps the dyadic structures
      // at a practical depth.
      mapped = OrderedFromFloat(static_cast<float>(value));
    } else {
      mapped = OrderedFromDouble(value);
    }
    sketch->Insert(mapped);
    ++n;
  }
  if (n == 0) {
    std::fprintf(stderr, "no input values\n");
    return 1;
  }

  std::printf("# %s eps=%g n=%llu memory=%.1fKB\n", sketch->Name().c_str(),
              config.eps, static_cast<unsigned long long>(n),
              sketch->MemoryBytes() / 1024.0);
  std::sort(phis.begin(), phis.end());
  const auto answers = sketch->QueryMany(phis);
  for (size_t i = 0; i < phis.size(); ++i) {
    const double out =
        fixed_universe
            ? static_cast<double>(FloatFromOrdered(
                  static_cast<uint32_t>(answers[i])))
            : DoubleFromOrdered(answers[i]);
    std::printf("%g\t%.10g\n", phis[i], out);
  }
  return 0;
}
